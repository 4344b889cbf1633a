package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions and seams.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"` // request the span serves (0: none)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans and counts of a traced pass in memory. A nil
// *tracer records nothing, so untraced passes share the code paths.
type tracer struct {
	t0 time.Time
	on atomic.Bool // spans are recorded only while the pass measures

	mu     sync.Mutex
	spans  []span
	counts map[string]float64 // per-layer counts and values set by workloads

	prof    bytes.Buffer
	runtime []metrics.Sample // runtime counters at the start of the pass
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// adopt sets the parent and request of span id, for spans whose parent is
// known only when they end.
func (t *tracer) adopt(id, parent, req int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Parent, t.spans[id-1].Req = parent, req
	t.mu.Unlock()
}

// add adds v to the per-layer count name.
func (t *tracer) add(name string, v float64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// put sets the per-layer value name.
func (t *tracer) put(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// Spans cross goroutines and nodes as context values and, over HTTP, as
// these headers.
const (
	spanHeader = "X-Perfbench-Span"
	reqHeader  = "X-Perfbench-Req"
)

type spanKey struct{}

type spanRef struct{ id, req int64 }

func withSpan(ctx context.Context, id, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

func setSpanHeaders(h http.Header, id, req int64) {
	h.Set(spanHeader, strconv.FormatInt(id, 10))
	h.Set(reqHeader, strconv.FormatInt(req, 10))
}

func spanFromHeaders(h http.Header) spanRef {
	id, _ := strconv.ParseInt(h.Get(spanHeader), 10, 64)
	req, _ := strconv.ParseInt(h.Get(reqHeader), 10, 64)
	return spanRef{id, req}
}

// runtimeMetrics are the runtime counters a traced pass reports as deltas.
var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// start begins recording: spans, the CPU profile and runtime counters.
func (t *tracer) start() error {
	t.runtime = readRuntime()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return err
	}
	t.on.Store(true)
	return nil
}

// stop ends recording and returns the runtime counters at the end of the
// pass.
func (t *tracer) stop() []metrics.Sample {
	t.on.Store(false)
	pprof.StopCPUProfile()
	return readRuntime()
}

func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// spanStat is the total and self time of all spans of one name. Self time
// is a span's duration minus the part of it that its children cover.
type spanStat struct {
	N       int     `json:"n"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// perLayer lists BENCHMARK.json's per-layer metrics with their units.
// README.md names the end-to-end metric and workload each should move.
var perLayer = map[string]string{
	"engine.sched_cpu_frac":        "ratio",
	"sim.cpu_frac":                 "ratio",
	"gc.cpu_frac":                  "ratio",
	"alloc.bytes_per_kref":         "B/kref",
	"machine.cpu_frac":             "ratio",
	"machine.run_ms":               "ms",
	"sampler.func_ref_frac":        "ratio",
	"sampler.detailed_refs":        "count",
	"sampler.rounds":               "count",
	"sampler.round_ref_frac":       "ratio",
	"mem.cpu_frac":                 "ratio",
	"proto.cpu_frac":               "ratio",
	"ring.cpu_frac":                "ratio",
	"optical.cpu_frac":             "ratio",
	"machine.refs":                 "count",
	"mem.l2_misses":                "count",
	"ring.shared_hits":             "count",
	"proto.updates":                "count",
	"apps.setup_ms":                "ms",
	"apps.cpu_frac":                "ratio",
	"result.encode_ms":             "ms",
	"spec.key_us":                  "us",
	"spec.decode_us":               "us",
	"http.handler_us":              "us",
	"http.transport_us":            "us",
	"server.simulate_ms":           "ms",
	"server.wait_ms":               "ms",
	"server.coalesced_frac":        "ratio",
	"server.sims_per_key":          "ratio",
	"store.readfile_us":            "us",
	"store.chtimes_us":             "us",
	"store.put_us":                 "us",
	"store.hot_get_us":             "us",
	"store.cold_get_us":            "us",
	"runtime.mutex_wait_ms":        "ms",
	"runtime.sched_latency_p99_us": "us",
	"cluster.hop_us":               "us",
	"repair.pushes":                "count",
	"repair.probes":                "count",
	"repair.useful_frac":           "ratio",
	"repair.bytes":                 "B",
	"loadgen.lag_p99_ms":           "ms",
	"loadgen.backlog_max":          "count",
	"trace.overhead_frac":          "ratio",
}

// meanSpans maps per-layer metrics that are the mean duration of one span
// name to that name and the unit's length in nanoseconds.
var meanSpans = map[string]struct {
	span string
	unit float64
}{
	"machine.run_ms":     {"machine.run", 1e6},
	"apps.setup_ms":      {"apps.setup", 1e6},
	"result.encode_ms":   {"result.encode", 1e6},
	"spec.key_us":        {"spec.key", 1e3},
	"spec.decode_us":     {"spec.decode", 1e3},
	"server.simulate_ms": {"server.simulate", 1e6},
	"store.readfile_us":  {"store.readfile", 1e3},
	"store.chtimes_us":   {"store.chtimes", 1e3},
	"store.put_us":       {"store.put", 1e3},
	"store.hot_get_us":   {"store.hot_get", 1e3},
	"store.cold_get_us":  {"store.cold_get", 1e3},
	"cluster.hop_us":     {"cluster.hop", 1e3},
}

// layers turns the pass's spans, counts, CPU profile and runtime counters
// into the per-layer metrics and the per-span self times.
func (t *tracer) layers(rtEnd []metrics.Sample) (map[string]metric, map[string]spanStat) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vals := map[string]float64{}
	for k, v := range t.counts {
		vals[k] = v
	}

	self := selfTimes(t.spans)
	stats := map[string]spanStat{}
	for i, s := range t.spans {
		st := stats[s.Name]
		st.N++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(self[i]) / 1e6
		stats[s.Name] = st
	}
	for name, ms := range meanSpans {
		if st := stats[ms.span]; st.N > 0 {
			vals[name] = st.TotalMs * 1e6 / ms.unit / float64(st.N)
		}
	}
	vals["repair.pushes"] = float64(stats["repair.push"].N)
	vals["repair.probes"] = float64(stats["repair.probe"].N)
	if n := vals["repair.probes"]; n > 0 {
		vals["repair.useful_frac"] = vals["repair.pushes"] / n
	}

	// Request-level spans: handlers called straight from the load
	// generator, their transport share and their self (wait) time.
	byID := func(id int64) *span { return &t.spans[id-1] }
	var handlers, transport, wait float64
	n := 0
	for i, s := range t.spans {
		if s.Name != "http.handler" || s.Parent == 0 || byID(s.Parent).Name != "client.request" {
			continue
		}
		c := byID(s.Parent)
		n++
		handlers += float64(s.End - s.Start)
		transport += float64((c.End - c.Start) - (s.End - s.Start))
		wait += float64(self[i])
	}
	if n > 0 {
		vals["http.handler_us"] = handlers / float64(n) / 1e3
		vals["http.transport_us"] = transport / float64(n) / 1e3
		vals["server.wait_ms"] = wait / float64(n) / 1e6
	}

	for k, v := range cpuShares(t.prof.Bytes()) {
		vals[k] = v
	}
	rt0 := t.runtime
	delta := func(i int) float64 { return rtValue(rtEnd[i]) - rtValue(rt0[i]) }
	if cpu := delta(1); cpu > 0 {
		vals["gc.cpu_frac"] = delta(0) / cpu
	}
	if refs := vals["machine.refs"]; refs > 0 {
		vals["alloc.bytes_per_kref"] = delta(2) / (refs / 1000)
	}
	vals["runtime.mutex_wait_ms"] = delta(3) * 1e3
	vals["runtime.sched_latency_p99_us"] = histQuantileDelta(rt0[4], rtEnd[4], 0.99) * 1e6

	out := map[string]metric{}
	for name, unit := range perLayer {
		out[name] = metric{Value: finite(vals[name]), Unit: unit}
	}
	return out, stats
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// histQuantileDelta returns the q-quantile of the samples a runtime
// histogram gained between two reads, as the upper bound of its bucket.
func histQuantileDelta(a, b metrics.Sample, q float64) float64 {
	if a.Value.Kind() != metrics.KindFloat64Histogram || b.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Value.Float64Histogram(), b.Value.Float64Histogram()
	var total uint64
	d := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		d[i] = hb.Counts[i] - ha.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= want {
			up := hb.Buckets[i+1]
			if math.IsInf(up, 1) {
				return hb.Buckets[i]
			}
			return up
		}
	}
	return 0
}

// selfTimes returns, per span, its duration minus the union of its
// children's intervals clipped to it.
func selfTimes(spans []span) []int64 {
	children := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		iv := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB int64 = 0, -1, -1
		for _, v := range iv {
			if v[0] > curB {
				covered += curB - curA
				curA, curB = v[0], v[1]
			} else if v[1] > curB {
				curB = v[1]
			}
		}
		covered += curB - curA
		self[i] -= covered
	}
	return self
}
