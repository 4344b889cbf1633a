package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netcache"
	"netcache/internal/cluster"
	"netcache/internal/server"
)

// missSpecs are the apps and input scales of svc-write's misses: real
// simulations of 10-90 ms each on a 2-core 2.x GHz Xeon, on all four
// systems.
var missSpecs = []struct {
	app   string
	scale float64
}{
	{"cg", 0.05}, {"em3d", 0.1}, {"fft", 0.2}, {"gauss", 0.2}, {"lu", 0.12},
	{"mg", 0.4}, {"ocean", 0.3}, {"sor", 0.15}, {"water", 0.2}, {"wf", 0.12},
}

// Half of svc-write's leaders get a second request for the same spec
// while the first is still simulating; followerDelay is how much later it
// is due. The half and the delay are assumptions: no client of netcached
// repeats specs in flight today. The delay is shorter than the quickest
// simulation, so every second request coalesces.
const followerDelay = 2 * time.Millisecond

// convergeTimeout bounds the wait for every key to reach its new owner.
const convergeTimeout = 60 * time.Second

// joiners is how many nodes join, one after another, after the traffic.
// Three joins triple the repair work that converge_s times, so one
// hiccup of the host weighs less.
const joiners = 3

type writeEnv struct {
	f      *fleet
	nodes  []*node           // the 2-peer ring, then the joiners
	stored map[string][]byte // key -> bytes of every key the ring holds
	ring   *cluster.Ring     // the current ring
	hc     *http.Client
	reqID  atomic.Int64
}

// setupWrite boots a 2-peer ring with replication 1 whose stores already
// hold WritePreload keys, plus the nodes that join later.
func setupWrite(ctx context.Context, cfg *config, tr *tracer) (env, error) {
	f, err := newFleet(cfg, tr, "write-")
	if err != nil {
		return nil, err
	}
	e := &writeEnv{f: f, hc: &http.Client{Transport: f.transport}, stored: map[string][]byte{}}
	if err := e.setup(ctx, cfg); err != nil {
		f.close()
		return nil, err
	}
	return e, nil
}

func (e *writeEnv) setup(ctx context.Context, cfg *config) error {
	peers := []string{peerName(0), peerName(1)}
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		return err
	}
	e.ring = ring
	_, keys, err := hitSpecs(cfg.Seed, cfg.Sizes.WritePreload, peers, "")
	if err != nil {
		return err
	}
	bodies, err := templateBodies(ctx)
	if err != nil {
		return err
	}
	for i := 0; i < len(peers)+joiners; i++ {
		st, keySpans, err := e.f.openStore(i)
		if err != nil {
			return err
		}
		members := peers
		if i >= len(peers) {
			members = []string{peerName(i)}
		}
		for j, key := range keys {
			if ring.Owner(key) == peerName(i) {
				if err := st.Put(key, bodies[j%len(bodies)]); err != nil {
					st.Close()
					return err
				}
				e.stored[key] = bodies[j%len(bodies)]
			}
		}
		n, err := e.f.boot(i, members, st, keySpans)
		if err != nil {
			st.Close()
			return err
		}
		e.nodes = append(e.nodes, n)
	}
	return warmUp(ctx)
}

func (e *writeEnv) close() { e.f.close() }

// writeReq is one scheduled svc-write request.
type writeReq struct {
	spec     int
	follower bool
}

// Shares of svc-write's measured time: the traffic, then the re-reads.
// The joins take as long as they take.
const (
	trafficShare = 0.7
	rereadShare  = 0.1
)

// rereadWindows is how many windows the re-read phase is cut into.
const rereadWindows = 8

// measure offers new specs at WriteRate, measures the CPU cost of reading
// them again, then joins the other nodes one by one, each time waiting
// until every key is readable at its new owner.
func (e *writeEnv) measure(ctx context.Context, p *pass) error {
	sz := p.cfg.Sizes
	rng := rand.New(rand.NewSource(int64(splitmix64(p.cfg.Seed ^ 0x3417e))))
	n := max(1, int(sz.WriteRate*trafficShare*p.cfg.Seconds))
	perm := rng.Perm(len(missSpecs))
	phase := make([]float64, len(missSpecs))
	for a := range phase {
		phase[a] = rng.Float64()
	}
	followerParity := rng.Intn(2)
	var (
		specs []netcache.RunSpec
		keys  []string
		reqs  []writeReq
		dues  []time.Duration
	)
	for i := 0; i < n; i++ {
		// Each spec's scale lies within ±40% of its app's, so run times
		// spread out instead of clustering by app and the tail
		// percentiles do not sit on a gap between clusters. An app's
		// successive scales step by the golden ratio from a seeded phase,
		// so they cover the range evenly whatever the seed, and the seed
		// moves the percentiles less than random draws would. Successive
		// specs alternate between the two owners, so the ring's placement
		// cannot pile the slow ones onto one node.
		a, round := perm[i%len(perm)], i/len(perm)
		_, jitter := math.Modf(phase[a] + float64(round)*math.Phi)
		m := missSpecs[a]
		s := netcache.RunSpec{
			App:    m.app,
			System: netcache.Systems[round%len(netcache.Systems)],
			Scale:  m.scale * sz.WriteScale * (0.6 + 0.8*jitter),
			Verify: true,
		}
		var key string
		for try := uint64(0); key == "" || e.ring.Owner(key) != peerName(i%2); try++ {
			s.Config.Seed = splitmix64(p.cfg.Seed<<32 | 1<<31 | uint64(i)<<8 | try)
			var err error
			if key, err = s.Key(); err != nil {
				return err
			}
		}
		specs, keys = append(specs, s), append(keys, key)
		due := time.Duration(float64(i) / sz.WriteRate * float64(time.Second))
		reqs, dues = append(reqs, writeReq{spec: i}), append(dues, due)
		// Every other pair of leaders gets a follower: exactly the share,
		// and as many on each owner.
		if (i/2+followerParity)%2 == 0 {
			reqs, dues = append(reqs, writeReq{spec: i, follower: true}), append(dues, due+followerDelay)
		}
	}

	var mu sync.Mutex
	served := make([][]byte, n)
	ok := make([]bool, len(reqs))
	var d, lag []time.Duration
	var backlog int
	cpu0 := cpuTime()
	withLoadProcs(func() {
		d, lag, backlog = openLoop(ctx, loadConc(), dues, func(ctx context.Context, i int) {
			body, good := e.send(ctx, p, specs[reqs[i].spec], keys[reqs[i].spec])
			ok[i] = good
			if !good {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if prev := served[reqs[i].spec]; prev == nil {
				served[reqs[i].spec] = body
			} else {
				p.res.check(bytes.Equal(prev, body), "key %s: two requests got different bodies", keys[reqs[i].spec][:12])
			}
		})
	})
	trafficCPU := cpuTime() - cpu0
	lat := msOf(d)
	for i := range lat {
		if !ok[i] {
			lat[i] = math.Inf(1)
		}
	}
	// Per leader: simulated references delivered per second of its
	// latency. Followers coalesce onto a leader and are timed apart.
	var perSec, follower []float64
	var refs float64
	for i, r := range reqs {
		if r.follower {
			follower = append(follower, lat[i])
			continue
		}
		var res struct{ Reads, Writes uint64 }
		if ok[i] && json.Unmarshal(served[r.spec], &res) == nil {
			perSec = append(perSec, float64(res.Reads+res.Writes)/(lat[i]/1e3))
			refs += float64(res.Reads + res.Writes)
		}
	}
	lags := msOf(lag)
	sort.Float64s(lags)
	p.tr.put("loadgen.lag_p99_ms", quantile(lags, 0.99))
	p.tr.put("loadgen.backlog_max", float64(backlog))
	sort.Float64s(lat)
	p.set("miss_p50_ms", quantile(lat, 0.5), "ms", len(lat))
	p.set("miss_p90_ms", quantile(lat, 0.9), "ms", len(lat))
	p.set("follower_p50_ms", median(follower), "ms", len(follower))
	p.set("miss_refs_per_s", median(perSec), "1/s", len(perSec))
	p.set("miss_refs_per_cpu_s", refs/trafficCPU.Seconds(), "1/s", len(perSec))
	p.set("miss_rate_rps", sz.WriteRate, "req/s", n)
	p.primary = p.metrics["miss_p50_ms"].Value / 1e3

	// Every distinct spec simulated exactly once, and stored as served.
	sims, err := e.f.counter(ctx, "netcached_simulations_total")
	if err != nil {
		return err
	}
	coalesced, err := e.f.counter(ctx, "netcached_coalesced_total")
	if err != nil {
		return err
	}
	p.res.check(sims == n, "svc-write simulated %d times for %d distinct specs", sims, n)
	p.tr.put("server.sims_per_key", float64(sims)/float64(n))
	p.tr.put("server.coalesced_frac", float64(coalesced)/float64(len(reqs)))
	for i, key := range keys {
		owner := e.nodeOf(e.ring.Owner(key))
		got, found := owner.st.Get(key)
		p.res.check(found && bytes.Equal(got, served[i]), "key %s: stored bytes differ from the served body", key[:12])
		e.stored[key] = got
	}
	e.rereadCost(ctx, p, specs, keys, served, time.Duration(rereadShare*p.cfg.Seconds*float64(time.Second)))
	// The joins stream keys between nodes concurrently, so, like the
	// traffic, they run on loadConc processors.
	withLoadProcs(func() { err = e.join(ctx, p) })
	return err
}

func (e *writeEnv) nodeOf(name string) *node {
	for _, n := range e.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// send posts one spec to its owner.
func (e *writeEnv) send(ctx context.Context, p *pass, s netcache.RunSpec, key string) ([]byte, bool) {
	p.res.attempt(1)
	body, err := s.CanonicalJSON()
	if err != nil {
		p.res.fail("encoding spec: %v", err)
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ring.Owner(key)+"/v1/run", bytes.NewReader(body))
	if err != nil {
		p.res.fail("request: %v", err)
		return nil, false
	}
	rid := e.reqID.Add(1)
	id := p.tr.begin("client.request", 0, rid)
	if p.tr != nil {
		setSpanHeaders(req.Header, id, rid)
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		p.tr.end(id)
		p.res.fail("POST /v1/run: %v", err)
		return nil, false
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.tr.end(id)
	if err != nil || resp.StatusCode != http.StatusOK {
		p.res.fail("POST /v1/run %s: status %d %v", s.App, resp.StatusCode, err)
		return nil, false
	}
	return out, true
}

// rereadCost asks for the traffic's specs again, each at its owner, one
// at a time on one connection, in windows, for d in all: store hits on
// entries the miss path wrote. Each served body must equal the one the
// first request got. reread_cpu_us is the process CPU time per request,
// the median over the windows, and reread_per_cpu_s the requests one
// CPU-second serves.
func (e *writeEnv) rereadCost(ctx context.Context, p *pass, specs []netcache.RunSpec, keys []string, served [][]byte, d time.Duration) {
	var perReq []float64
	total, window := 0, d/rereadWindows
	for w := 0; w < rereadWindows && ctx.Err() == nil; w++ {
		deadline := time.Now().Add(window)
		cpu0, n := cpuTime(), 0
		for ; n == 0 || time.Now().Before(deadline); n++ {
			i := total % len(specs)
			body, ok := e.send(ctx, p, specs[i], keys[i])
			p.res.check(!ok || bytes.Equal(body, served[i]), "key %s: a store hit served other bytes than the miss", keys[i][:12])
			total++
		}
		perReq = append(perReq, float64((cpuTime()-cpu0).Nanoseconds())/1e3/float64(n))
	}
	us := median(perReq)
	p.set("reread_cpu_us", us, "us", total)
	p.set("reread_per_cpu_s", 1e6/us, "1/s", total)
}

// join adds the joiners one after another through the membership API.
// After each join it waits until every key that moved is readable at the
// joiner, byte-identical. It polls only the first missing key of each old
// owner, in key order, so the poller adds little load while the owners
// stream. When the clock has stopped, every key is checked at its final
// owner.
func (e *writeEnv) join(ctx context.Context, p *pass) error {
	p.res.attempt(len(e.stored))
	placed := func(c *server.Client, key string) bool {
		body, found, err := c.Lookup(ctx, key)
		if err != nil || !found {
			return false
		}
		if !bytes.Equal(body, e.stored[key]) {
			p.res.fail("key %s: bytes at the new owner differ", key[:12])
		}
		return true
	}
	var converge time.Duration
	moved := 0
	for j := len(e.nodes) - joiners; j < len(e.nodes); j++ {
		joiner := e.nodes[j]
		var peers []string
		for _, n := range e.nodes[:j+1] {
			peers = append(peers, n.name)
		}
		after, err := cluster.NewRing(peers, 0)
		if err != nil {
			return err
		}
		queues := map[string][]string{} // old owner -> keys moving to the joiner
		left := 0
		for key := range e.stored {
			if after.Owner(key) == joiner.name {
				from := e.ring.Owner(key)
				queues[from] = append(queues[from], key)
				left++
			}
		}
		for _, q := range queues {
			sort.Strings(q)
		}
		moved += left
		dst := e.f.client(joiner.name)

		start := time.Now()
		if _, err := e.f.client(e.nodes[0].name).UpdateMembership(ctx, cluster.ActionJoin, joiner.name); err != nil {
			return fmt.Errorf("joining %s: %w", joiner.name, err)
		}
		for left > 0 && time.Since(start) < convergeTimeout {
			if err := ctx.Err(); err != nil {
				return err
			}
			progress := false
			for from, q := range queues {
				for len(q) > 0 && placed(dst, q[0]) {
					q, left, progress = q[1:], left-1, true
				}
				queues[from] = q
			}
			if !progress {
				time.Sleep(time.Millisecond)
			}
		}
		converge += time.Since(start)
		for _, q := range queues {
			for _, key := range q {
				p.res.fail("key %s: not at %s after %v", key[:12], joiner.name, convergeTimeout)
			}
		}
		e.ring = after
	}
	for key := range e.stored {
		if !placed(e.f.client(e.ring.Owner(key)), key) {
			p.res.fail("key %s: missing at its owner after the joins", key[:12])
		}
	}
	p.set("converge_s", converge.Seconds(), "s", moved)
	p.set("converge_ms", float64(converge.Nanoseconds())/1e6, "ms", moved)
	p.set("converge_keys_per_s", float64(moved)/converge.Seconds(), "1/s", moved)
	return nil
}
