// Package ring implements the NetCache shared cache: an optical ring whose
// WDM cache channels continually circulate recently-accessed shared blocks.
//
// Organization (Section 3.3): each cache channel belongs to one home node
// (channels and blocks are interleaved round-robin, so channel = blockIndex
// mod channels keeps a block on one of its home's channels); a block may sit
// anywhere within its channel (fully-associative channels) or at a fixed
// frame (the direct-mapped alternative of Section 5.3.3). Each frame stores a
// line of RingLineBytes bytes.
//
// Timing is mechanistic: every cached line remembers the circulation phase at
// which it was inserted, and a lookup computes the next cycle at which that
// line physically passes the requesting node, plus a fixed access overhead
// (tag check and shift-to-access-register move). With a 40-cycle roundtrip
// the expected delay is the paper's 25 pcycles.
package ring

import (
	"fmt"

	"netcache/internal/sim"
)

// Time aliases the simulator timestamp.
type Time = sim.Time

// Policy selects the replacement policy used when a home node inserts a
// block into a full cache channel (Section 5.3.4).
type Policy int

const (
	Random Policy = iota // paper default: replace the next frame to pass
	LRU
	LFU
	FIFO
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Random:
		return "random"
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case FIFO:
		return "fifo"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// MarshalJSON encodes the policy as its name, keeping the wire format
// self-describing and stable if the constants are ever reordered.
func (p Policy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON accepts a policy name ("lru") or a legacy numeric value
// naming a known policy.
func (p *Policy) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		v, err := ParsePolicy(s[1 : len(s)-1])
		if err != nil {
			return err
		}
		*p = v
		return nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		return fmt.Errorf("ring: bad policy %s", s)
	}
	v, err := ParsePolicy(Policy(n).String())
	if err != nil {
		return fmt.Errorf("ring: bad policy %s", s)
	}
	*p = v
	return nil
}

// ParsePolicy converts a name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "random":
		return Random, nil
	case "lru":
		return LRU, nil
	case "lfu":
		return LFU, nil
	case "fifo":
		return FIFO, nil
	}
	return Random, fmt.Errorf("ring: unknown policy %q", s)
}

// Config describes a shared-cache organization.
type Config struct {
	Channels        int  // number of cache channels (128 for 32 KB)
	LineBytes       int  // shared-cache line size (64)
	LinesPerChannel int  // frames per channel (4)
	Procs           int  // nodes around the ring
	Roundtrip       Time // ring roundtrip latency (40)
	AccessOverhead  Time // tag check + register move (5)
	Policy          Policy
	DirectMapped    bool // direct-mapped channels (Section 5.3.3)
	Seed            uint64
}

// CapacityBytes returns the shared-cache data capacity.
func (c Config) CapacityBytes() int { return c.Channels * c.LineBytes * c.LinesPerChannel }

type line struct {
	tag        int64 // line index (addr / LineBytes); -1 when invalid
	phase      Time  // insertion position on the ring, in [0, Roundtrip)
	insertedAt Time
	lastUsed   Time
	uses       uint64
	seq        uint64
}

type channel struct {
	lines []line
}

// Stats counts shared-cache activity.
type Stats struct {
	Lookups      uint64
	Hits         uint64
	Inserts      uint64
	Replacements uint64
	Updates      uint64 // update-propagation writes to cached copies
}

// HitRate returns hits/lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache is the system-wide shared cache stored on the ring.
type Cache struct {
	cfg      Config
	channels []channel
	rng      uint64
	seq      uint64
	Stats    Stats
}

// New builds a shared cache; a Channels count of zero yields a nil cache
// (the "no shared cache" OPTNET configuration), which all methods tolerate.
func New(cfg Config) *Cache {
	if cfg.Channels == 0 {
		return nil
	}
	if cfg.LinesPerChannel <= 0 {
		cfg.LinesPerChannel = 4
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.Roundtrip <= 0 {
		cfg.Roundtrip = 40
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x9E3779B97F4A7C15
	}
	c := &Cache{cfg: cfg, rng: cfg.Seed}
	c.channels = make([]channel, cfg.Channels)
	for i := range c.channels {
		ls := make([]line, cfg.LinesPerChannel)
		for j := range ls {
			ls[j].tag = -1
		}
		c.channels[i].lines = ls
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) nextRand() uint64 {
	// xorshift64*: deterministic, seedable.
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return x * 0x2545F4914F6CDD1D
}

// LineIndex maps a byte address to its ring line index.
func (c *Cache) LineIndex(addr int64) int64 { return addr / int64(c.cfg.LineBytes) }

func (c *Cache) channelOf(lineIdx int64) int { return int(lineIdx % int64(c.cfg.Channels)) }

func (c *Cache) frameOf(lineIdx int64) int {
	return int((lineIdx / int64(c.cfg.Channels)) % int64(c.cfg.LinesPerChannel))
}

func (c *Cache) find(lineIdx int64) *line {
	ch := &c.channels[c.channelOf(lineIdx)]
	if c.cfg.DirectMapped {
		l := &ch.lines[c.frameOf(lineIdx)]
		if l.tag == lineIdx {
			return l
		}
		return nil
	}
	for i := range ch.lines {
		if ch.lines[i].tag == lineIdx {
			return &ch.lines[i]
		}
	}
	return nil
}

// Contains reports whether the line holding addr is currently cached, without
// touching statistics (used by home nodes to decide whether to disregard a
// request).
func (c *Cache) Contains(addr int64) bool {
	if c == nil {
		return false
	}
	return c.find(c.LineIndex(addr)) != nil
}

// nodeOffset is the ring propagation delay from the insertion point to node n.
// Nodes are spaced evenly around the fiber.
func (c *Cache) nodeOffset(n int) Time {
	return Time(n) * c.cfg.Roundtrip / Time(c.cfg.Procs)
}

// Lookup checks for the line holding addr at time t on behalf of node. On a
// hit it returns the cycle at which the block has been captured into the
// node's access register (passing time plus access overhead).
func (c *Cache) Lookup(addr int64, node int, t Time) (hit bool, availableAt Time) {
	if c == nil {
		return false, 0
	}
	c.Stats.Lookups++
	idx := c.LineIndex(addr)
	l := c.find(idx)
	if l == nil {
		return false, 0
	}
	c.Stats.Hits++
	l.lastUsed = t
	l.uses++
	// The line passes node when (t' - phase - offset) mod roundtrip == 0.
	rt := c.cfg.Roundtrip
	pos := (l.phase + c.nodeOffset(node)) % rt
	wait := (pos - t%rt + rt) % rt
	return true, t + wait + c.cfg.AccessOverhead
}

// Insert places the line holding addr into the shared cache at time t on
// behalf of its home node, evicting a victim according to the configured
// policy when the channel (or frame) is occupied. It returns the line index
// evicted, or -1. Replacements never write back: memory is always current
// under the update protocol.
func (c *Cache) Insert(addr int64, home int, t Time) (evicted int64) {
	if c == nil {
		return -1
	}
	idx := c.LineIndex(addr)
	if l := c.find(idx); l != nil {
		return -1 // already present (racing requests)
	}
	c.Stats.Inserts++
	ch := &c.channels[c.channelOf(idx)]
	var victim *line
	if c.cfg.DirectMapped {
		victim = &ch.lines[c.frameOf(idx)]
	} else {
		for i := range ch.lines {
			if ch.lines[i].tag == -1 {
				victim = &ch.lines[i]
				break
			}
		}
		if victim == nil {
			victim = c.pickVictim(ch)
		}
	}
	evicted = victim.tag
	if evicted != -1 {
		c.Stats.Replacements++
	}
	c.seq++
	*victim = line{
		tag:        idx,
		phase:      (t + c.nodeOffset(home)) % c.cfg.Roundtrip,
		insertedAt: t,
		lastUsed:   t,
		uses:       1,
		seq:        c.seq,
	}
	return evicted
}

func (c *Cache) pickVictim(ch *channel) *line {
	switch c.cfg.Policy {
	case Random:
		// The paper replaces "the block contained in the next shared cache
		// line to pass through the node"; a seeded PRNG is an equivalent
		// deterministic stand-in.
		return &ch.lines[c.nextRand()%uint64(len(ch.lines))]
	case LRU:
		best := &ch.lines[0]
		for i := 1; i < len(ch.lines); i++ {
			if ch.lines[i].lastUsed < best.lastUsed {
				best = &ch.lines[i]
			}
		}
		return best
	case LFU:
		best := &ch.lines[0]
		for i := 1; i < len(ch.lines); i++ {
			if ch.lines[i].uses < best.uses {
				best = &ch.lines[i]
			}
		}
		return best
	case FIFO:
		best := &ch.lines[0]
		for i := 1; i < len(ch.lines); i++ {
			if ch.lines[i].seq < best.seq {
				best = &ch.lines[i]
			}
		}
		return best
	}
	return &ch.lines[0]
}

// Update records an update-propagation write to the cached copy of addr, if
// present (the data itself lives application-side; only statistics and
// recency metadata change).
func (c *Cache) Update(addr int64, t Time) bool {
	if c == nil {
		return false
	}
	l := c.find(c.LineIndex(addr))
	if l == nil {
		return false
	}
	c.Stats.Updates++
	return true
}

// Invalidate drops the line holding addr (used by tests and by block-size
// studies when lines alias).
func (c *Cache) Invalidate(addr int64) bool {
	if c == nil {
		return false
	}
	l := c.find(c.LineIndex(addr))
	if l == nil {
		return false
	}
	l.tag = -1
	return true
}
