// Package netcache is a reproduction of "NetCache: A Network/Cache Hybrid
// for Multiprocessors" (Carrera & Bianchini, IPPS 1999): an execution-driven
// simulator of 16-node multiprocessors built on optical interconnects, in
// which the NetCache system stores recently-accessed shared data on a WDM
// ring that acts as a system-wide shared cache.
//
// The package exposes the four simulated systems (NetCache, LambdaNet,
// DMON-U, DMON-I, plus the ring-less OPTNET), the twelve-application
// workload of Table 4, and experiment drivers that regenerate every table
// and figure of the paper's evaluation (Section 5).
//
// Quick start:
//
//	res, err := netcache.Run(netcache.RunSpec{App: "sor", System: netcache.SystemNetCache})
//	fmt.Println(res.Cycles, res.SharedCacheHitRate)
package netcache

import (
	"fmt"
	"strings"

	"netcache/internal/machine"
	"netcache/internal/nodeset"
	"netcache/internal/ring"
	"netcache/internal/timing"

	protodmon "netcache/internal/proto/dmon"
	protolambda "netcache/internal/proto/lambdanet"
	protonet "netcache/internal/proto/netcache"
)

// System selects one of the simulated multiprocessors.
type System int

const (
	// SystemNetCache is the paper's proposal: star coupler + ring shared cache.
	SystemNetCache System = iota
	// SystemOptNet is NetCache without the ring subnetwork (no shared cache).
	SystemOptNet
	// SystemLambdaNet is the LambdaNet with write-update coherence.
	SystemLambdaNet
	// SystemDMONU is DMON with the update-based protocol.
	SystemDMONU
	// SystemDMONI is DMON with the I-SPEED invalidate protocol.
	SystemDMONI
)

// Systems lists all simulated systems in Figure 6 order.
var Systems = []System{SystemNetCache, SystemLambdaNet, SystemDMONU, SystemDMONI}

// String names the system as in the paper.
func (s System) String() string {
	switch s {
	case SystemNetCache:
		return "netcache"
	case SystemOptNet:
		return "optnet"
	case SystemLambdaNet:
		return "lambdanet"
	case SystemDMONU:
		return "dmon-u"
	case SystemDMONI:
		return "dmon-i"
	}
	return fmt.Sprintf("system(%d)", int(s))
}

// MarshalJSON encodes the system as its paper name, so wire specs read
// "netcache" rather than an enum ordinal.
func (s System) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts a system name (any ParseSystem spelling) or a
// legacy numeric value naming a known system. An unknown number is
// refused: it would canonicalise to a name that does not decode.
func (s *System) UnmarshalJSON(b []byte) error {
	t := string(b)
	if len(t) >= 2 && t[0] == '"' && t[len(t)-1] == '"' {
		v, err := ParseSystem(t[1 : len(t)-1])
		if err != nil {
			return err
		}
		*s = v
		return nil
	}
	var n int
	if _, err := fmt.Sscanf(t, "%d", &n); err != nil {
		return fmt.Errorf("netcache: bad system %s", t)
	}
	v, err := ParseSystem(System(n).String())
	if err != nil {
		return fmt.Errorf("netcache: bad system %s", t)
	}
	*s = v
	return nil
}

// ParseSystem converts a name to a System.
func ParseSystem(s string) (System, error) {
	switch strings.ToLower(s) {
	case "netcache", "n":
		return SystemNetCache, nil
	case "optnet", "noring", "netcache-noring":
		return SystemOptNet, nil
	case "lambdanet", "lambda", "l":
		return SystemLambdaNet, nil
	case "dmon-u", "dmonu", "du":
		return SystemDMONU, nil
	case "dmon-i", "dmoni", "di":
		return SystemDMONI, nil
	}
	return 0, fmt.Errorf("netcache: unknown system %q", s)
}

// Policy re-exports the shared-cache replacement policies.
type Policy = ring.Policy

// ParsePolicyName converts a policy name ("random", "lru", "lfu", "fifo").
func ParsePolicyName(s string) (Policy, error) { return ring.ParsePolicy(s) }

// Replacement policies of Section 5.3.4.
const (
	PolicyRandom = ring.Random
	PolicyLRU    = ring.LRU
	PolicyLFU    = ring.LFU
	PolicyFIFO   = ring.FIFO
)

// Config are the architectural knobs of a simulated machine (defaults are
// the base system of Section 4.1).
type Config struct {
	Procs int // nodes (16)

	L1Bytes   int // 4096
	L1Block   int // 32
	L2Bytes   int // 16384
	L2Block   int // 64
	WBEntries int // 16

	GbitsPerSec  int // 5, 10 or 20 (10)
	MemBlockRead int // 44, 76 or 108 pcycles (76)

	// Shared cache (NetCache only).
	SharedCacheKB   int    // 0, 16, 32 or 64 (32); 0 degrades NetCache to OPTNET
	SharedLineBytes int    // 64 or 128 (64)
	SharedPolicy    Policy // PolicyRandom
	SharedDirectMap bool   // direct-mapped cache channels (Section 5.3.3)
	Seed            uint64 // replacement PRNG seed

	// SingleStartReads is an ablation of the Section 3.4 dual-start read:
	// when set, NetCache reads consult the ring first and only fall back to
	// the star coupler after miss determination.
	SingleStartReads bool

	// Prefetch enables sequential next-block prefetching on L2 misses — the
	// "larger number of tunable receivers" latency-tolerance extension the
	// paper's Section 6 discusses.
	Prefetch bool
}

// DefaultConfig returns the Section 4.1 base machine.
func DefaultConfig() Config {
	return Config{
		Procs:           16,
		L1Bytes:         4 * 1024,
		L1Block:         32,
		L2Bytes:         16 * 1024,
		L2Block:         64,
		WBEntries:       16,
		GbitsPerSec:     10,
		MemBlockRead:    76,
		SharedCacheKB:   32,
		SharedLineBytes: 64,
		SharedPolicy:    PolicyRandom,
	}
}

// MaxProcs is the largest machine the simulator builds: the width of the
// word-packed node sets that coherence fan-out and the home directory
// iterate. Sixteen nodes is the paper's machine; up to 256 supports the
// big-machine scaling sweeps.
const MaxProcs = nodeset.MaxNodes

// Validate checks the architectural parameters after default substitution,
// so a RunSpec fails with a clear error before any machine state is built.
// Procs must be a power of two — the interleaved home mapping, the TDMA
// frame layout and the paired coherence channels all assume one — and at
// most MaxProcs, the packed node-set width.
func (c Config) Validate() error {
	c = c.withDefaults()
	p := c.Procs
	if p < 1 || p > MaxProcs {
		return fmt.Errorf("netcache: Procs = %d out of range [1, %d]", p, MaxProcs)
	}
	if p&(p-1) != 0 {
		return fmt.Errorf("netcache: Procs = %d is not a power of two (home interleaving and TDMA framing require one)", p)
	}
	return nil
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Procs == 0 {
		c.Procs = d.Procs
	}
	if c.L1Bytes == 0 {
		c.L1Bytes = d.L1Bytes
	}
	if c.L1Block == 0 {
		c.L1Block = d.L1Block
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = d.L2Bytes
	}
	if c.L2Block == 0 {
		c.L2Block = d.L2Block
	}
	if c.WBEntries == 0 {
		c.WBEntries = d.WBEntries
	}
	if c.GbitsPerSec == 0 {
		c.GbitsPerSec = d.GbitsPerSec
	}
	if c.MemBlockRead == 0 {
		c.MemBlockRead = d.MemBlockRead
	}
	if c.SharedCacheKB == 0 {
		// A ring-less machine is requested via SystemOptNet, so zero means
		// "default" here.
		c.SharedCacheKB = d.SharedCacheKB
	}
	if c.SharedLineBytes == 0 {
		c.SharedLineBytes = d.SharedLineBytes
	}
	return c
}

// machineConfig converts to the internal configuration.
func (c Config) machineConfig() machine.Config {
	return machine.Config{
		Timing: timing.Params{
			Procs:               c.Procs,
			GbitsPerSec:         c.GbitsPerSec,
			MemBlockRead64:      timing.Time(c.MemBlockRead),
			L2BlockBytes:        c.L2Block,
			RingLineBytes:       c.SharedLineBytes,
			RingLinesPerChannel: 4,
		},
		L1Bytes:   c.L1Bytes,
		L1Block:   c.L1Block,
		L2Bytes:   c.L2Bytes,
		L2Block:   c.L2Block,
		WBEntries: c.WBEntries,
		Prefetch:  c.Prefetch,
	}
}

// ringConfig builds the shared-cache configuration (Channels=0 when the
// system has none). Capacity is varied by adjusting the channel count, as in
// Section 5.3.1, which keeps the roundtrip time constant.
func (c Config) ringConfig(model timing.Model) ring.Config {
	lines := c.SharedCacheKB * 1024 / c.SharedLineBytes
	channels := 0
	if lines > 0 {
		channels = lines / 4
	}
	return ring.Config{
		Channels:        channels,
		LineBytes:       c.SharedLineBytes,
		LinesPerChannel: 4,
		Procs:           c.Procs,
		Roundtrip:       model.RingRoundtrip,
		AccessOverhead:  model.RingAccessOverhead,
		Policy:          c.SharedPolicy,
		DirectMapped:    c.SharedDirectMap,
		Seed:            c.Seed,
	}
}

// NewMachine builds a simulated machine of the given system. The
// configuration must satisfy Validate; NewMachine panics otherwise (the
// Run/RunCustom entry points validate first and return the error instead).
func NewMachine(sys System, cfg Config) *machine.Machine {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if sys == SystemOptNet {
		cfg.SharedCacheKB = 0
		sys = SystemNetCache
	}
	mc := cfg.machineConfig()
	return machine.New(mc, func(m *machine.Machine) machine.Protocol {
		switch sys {
		case SystemNetCache:
			p := protonet.New(m, ring.New(cfg.ringConfig(m.Model)))
			p.SetSingleStart(cfg.SingleStartReads)
			return p
		case SystemLambdaNet:
			return protolambda.New(m)
		case SystemDMONU:
			return protodmon.New(m, protodmon.Update)
		case SystemDMONI:
			return protodmon.New(m, protodmon.Invalidate)
		}
		panic("netcache: unknown system")
	})
}
