package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuShares attributes a runtime/pprof CPU profile to the layers by the
// package of each sample's leaf function (flat time), and returns each
// layer's share of all sampled CPU time.
func cpuShares(gz []byte) map[string]float64 {
	leaves, err := profileLeaves(gz)
	if err != nil || len(leaves) == 0 {
		return nil
	}
	var total float64
	shares := map[string]float64{}
	for fn, v := range leaves {
		total += v
		if layer := cpuLayer(fn); layer != "" {
			shares[layer] += v
		}
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}

// schedFuncs are the runtime functions of goroutine scheduling and channel
// hand-off: where the simulation engine's processor switches spend time.
var schedFuncs = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.chan", "runtime.selectgo",
	"runtime.send", "runtime.recv", "runtime.gogo", "runtime.mcall", "runtime.futex",
	"runtime.note", "runtime.runq", "runtime.stealWork", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.execute", "runtime.casgstatus",
	"runtime.lock", "runtime.unlock", "runtime.procyield", "runtime.osyield",
	"runtime.usleep", "runtime.resetspinning", "runtime.mPark", "runtime.acquirep",
	"runtime.releasep", "runtime.handoffp", "runtime.gosched", "runtime.goschedImpl",
	"runtime.semacquire", "runtime.semrelease", "runtime.globrunq", "runtime.sellock",
	"runtime.selunlock", "runtime.checkTimers", "runtime.pidle", "runtime.netpoll",
	"runtime.mget", "runtime.mput", "runtime.newproc", "runtime.gfget", "runtime.gfput",
	"runtime.goexit", "runtime.gdestroy", "runtime.(*waitq)", "runtime.(*guintptr)",
	"runtime.(*puintptr)", "runtime.(*muintptr)", "runtime.(*gQueue)", "runtime.(*randomEnum)",
}

// cpuLayer maps a function name to its per-layer CPU metric ("" for none).
func cpuLayer(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		for _, p := range schedFuncs {
			if strings.HasPrefix(fn, p) {
				return "engine.sched_cpu_frac"
			}
		}
		return ""
	}
	const internal = "netcache/internal/"
	rest, ok := strings.CutPrefix(fn, internal)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/") // internal/proto/<protocol>
	switch pkg {
	case "sim", "machine", "mem", "proto", "ring", "optical", "apps":
		return pkg + ".cpu_frac"
	case "nodeset": // the machine's packed sharer sets
		return "machine.cpu_frac"
	}
	return ""
}

// profileLeaves decodes a gzipped profile.proto and sums the last sample
// value (CPU nanoseconds) by leaf function name. It reads only the fields
// it needs: Profile.sample (2), .location (4), .function (5) and
// .string_table (6).
func profileLeaves(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc uint64
		val int64
	}
	var (
		samples []sample
		locFunc = map[uint64]uint64{} // location -> innermost function
		funName = map[uint64]int64{}  // function -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample{location_id = 1 (packed), value = 2 (packed)}
			var s sample
			first := true
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return eachVarint(w, v, b, func(x uint64) {
						if first {
							s.loc, first = x, false
						}
					})
				case 2:
					return eachVarint(w, v, b, func(x uint64) { s.val = int64(x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location{id = 1, line = 4 (Line{function_id = 1})}
			var id, fn uint64
			first := true
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if first {
						first = false
						return eachField(b, func(n, w int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function{id = 1, name = 2}
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		idx := funName[locFunc[s.loc]]
		if idx < 0 || int(idx) >= len(strs) {
			continue
		}
		out[strs[idx]] += float64(s.val)
	}
	return out, nil
}

var errProto = errors.New("perfbench: malformed profile")

// eachField walks one protobuf message, calling f with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint calls f for each value of a repeated varint field, packed
// (wire type 2) or not.
func eachVarint(wire int, v uint64, b []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		f(x)
		b = b[n:]
	}
	return nil
}
