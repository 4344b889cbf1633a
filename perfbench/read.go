package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netcache"
	"netcache/internal/cluster"
	"netcache/internal/store"
)

// readLimit is the p99 latency limit behind read_max_rps.
const readLimit = 10 * time.Millisecond

// Request classes of svc-read.
const (
	classLocal   = 0 // Zipf keys, sent to the node that stores every key
	classProxied = 1 // Zipf keys, sent to the store-less node, which proxies to the owner
	classUniform = 2 // uniform keys, sent to the node that stores every key
)

// classNames names the classes in metric names, in class order.
var classNames = []string{"local", "proxied", "uniform"}

// zipfS is the Zipf exponent of the skewed classes. It is an assumption:
// no client of netcached exists whose traffic it could be taken from, and
// math/rand's Zipf needs s > 1.
const zipfS = 1.1

// loadConc is the load generator's worker and connection count: at most
// two, and never more than the host's processors.
func loadConc() int { return min(2, runtime.NumCPU()) }

// hitSpecs returns n distinct specs that the ring over peers places on
// owner: every app and system, told apart by the replacement seed (a real
// input, part of the canonical key). None is ever simulated.
func hitSpecs(seed uint64, n int, peers []string, owner string) ([]netcache.RunSpec, []string, error) {
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		return nil, nil, err
	}
	apps := netcache.Apps()
	var specs []netcache.RunSpec
	var keys []string
	for i := 0; len(specs) < n; i++ {
		s := netcache.RunSpec{
			App:    apps[i%len(apps)],
			System: netcache.Systems[(i/len(apps))%len(netcache.Systems)],
			Scale:  0.05,
			Config: netcache.Config{Seed: splitmix64(seed<<32 | uint64(i))},
		}
		key, err := s.Key()
		if err != nil {
			return nil, nil, err
		}
		if owner != "" && ring.Owner(key) != owner {
			continue
		}
		specs = append(specs, s)
		keys = append(keys, key)
	}
	return specs, keys, nil
}

type readEnv struct {
	f      *fleet
	a, b   *node
	hc     *http.Client
	reqs   [][]byte // request bodies by key index
	keys   []string
	expect [][]byte // stored bytes by key index
	reqID  atomic.Int64
}

// setupRead boots a 2-peer ring with replication 1: node a stores every
// key, node b has no store. Every spec is stored under its real key on a
// (which owns it), with the bytes of real simulations.
func setupRead(ctx context.Context, cfg *config, tr *tracer) (env, error) {
	f, err := newFleet(cfg, tr, "read-")
	if err != nil {
		return nil, err
	}
	e := &readEnv{f: f, hc: &http.Client{Transport: f.transport}}
	if err := e.setup(ctx, cfg); err != nil {
		f.close()
		return nil, err
	}
	return e, nil
}

func (e *readEnv) setup(ctx context.Context, cfg *config) error {
	peers := []string{peerName(0), peerName(1)}
	specs, keys, err := hitSpecs(cfg.Seed, cfg.Sizes.ReadKeys, peers, peerName(0))
	if err != nil {
		return err
	}
	bodies, err := templateBodies(ctx)
	if err != nil {
		return err
	}
	st, stKeys, err := e.f.openStore(0)
	if err != nil {
		return err
	}
	e.keys = keys
	for i, s := range specs {
		body := bodies[i%len(bodies)]
		if err := st.Put(keys[i], body); err != nil {
			st.Close()
			return err
		}
		req, err := s.CanonicalJSON()
		if err != nil {
			st.Close()
			return err
		}
		e.reqs = append(e.reqs, req)
		e.expect = append(e.expect, body)
	}
	if cfg.alterBody {
		e.expect[0] = append([]byte(nil), e.expect[0]...)
		e.expect[0][len(e.expect[0])/2] ^= 1
	}
	if e.a, err = e.f.boot(0, peers, st, stKeys); err != nil {
		st.Close()
		return err
	}
	if e.b, err = e.f.boot(1, peers, nil, nil); err != nil {
		return err
	}
	return warmUp(ctx)
}

func (e *readEnv) close() { e.f.close() }

// readReq is one scheduled svc-read request.
type readReq struct {
	class, key int
}

// schedule draws n requests of class c, or of the local and proxied
// classes evenly when c is negative. The uniform class draws every stored
// key with the same chance; the others draw Zipf-skewed keys.
func (e *readEnv) schedule(rng *rand.Rand, n, c int) []readReq {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(e.keys)-1))
	reqs := make([]readReq, n)
	for i := range reqs {
		class := c
		if c < 0 {
			class = rng.Intn(2)
		}
		key := int(zipf.Uint64())
		if class == classUniform {
			key = rng.Intn(len(e.keys))
		}
		reqs[i] = readReq{class: class, key: key}
	}
	return reqs
}

// step offers reqs at rate and returns each request's latency from its due
// time (+Inf when it failed), its lag and the largest backlog.
func (e *readEnv) step(ctx context.Context, p *pass, reqs []readReq, rate float64) (lat []float64, lag []time.Duration, backlog int) {
	ok := make([]bool, len(reqs))
	var d []time.Duration
	withLoadProcs(func() {
		d, lag, backlog = openLoop(ctx, loadConc(), evenDues(len(reqs), rate), func(ctx context.Context, i int) {
			ok[i] = e.send(ctx, p, reqs[i])
		})
	})
	lat = msOf(d)
	for i := range lat {
		if !ok[i] {
			lat[i] = math.Inf(1)
		}
	}
	return lat, lag, backlog
}

// send posts one request and checks that the body is the stored bytes.
func (e *readEnv) send(ctx context.Context, p *pass, r readReq) bool {
	target := e.a.name
	if r.class == classProxied {
		target = e.b.name
	}
	p.res.attempt(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/run", bytes.NewReader(e.reqs[r.key]))
	if err != nil {
		p.res.fail("request: %v", err)
		return false
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
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.tr.end(id)
	switch {
	case err != nil:
		p.res.fail("reading /v1/run: %v", err)
	case resp.StatusCode != http.StatusOK:
		p.res.fail("POST /v1/run: status %d", resp.StatusCode)
	case !bytes.Equal(body, e.expect[r.key]):
		p.res.fail("key %s: served body differs from the stored bytes", e.keys[r.key][:12])
	default:
		return true
	}
	return false
}

// refWindows is how many windows the reference phase is cut into; they
// take turns between the classes, so no class queues behind another.
// Each reference latency is the median over its class's windows, so one
// window disturbed by the host does not set the result.
const refWindows = 9

// costWindows is how many windows the cost phase is cut into, taking turns
// between the classes like the reference windows.
const costWindows = 12

// Shares of the measured time: the reference phase, the cost phase, then
// the saturation step; the max-rate search takes the rest.
const (
	refShare  = 0.4
	costShare = 0.3
	satShare  = 0.1
)

// satMaxRate bounds the requests a closed-loop step can send per second;
// it only sizes the schedule drawn for the step.
const satMaxRate = 100_000

// measure offers the reference rate, measures each class's CPU cost and
// the closed-loop saturation rate, then searches for the highest rate
// that meets readLimit.
func (e *readEnv) measure(ctx context.Context, p *pass) error {
	sz := p.cfg.Sizes
	rng := rand.New(rand.NewSource(int64(splitmix64(p.cfg.Seed ^ 0x2ead))))
	refSecs := refShare * p.cfg.Seconds
	var (
		perWindow [3][2][]float64 // class -> p50, p99 of each window
		count     [3]int
		repeats   [3]int // requests for a key requested before in the phase
		seen      = make([]bool, len(e.keys))
		lags      []float64
		backlog   int
	)
	for w := 0; w < refWindows; w++ {
		c := w % len(classNames)
		reqs := e.schedule(rng, max(1, int(sz.ReadRefRate*refSecs/refWindows)), c)
		for _, r := range reqs {
			if seen[r.key] {
				repeats[c]++
			}
			seen[r.key] = true
		}
		lat, lag, bl := e.step(ctx, p, reqs, sz.ReadRefRate)
		sort.Float64s(lat)
		perWindow[c][0] = append(perWindow[c][0], quantile(lat, 0.5))
		perWindow[c][1] = append(perWindow[c][1], quantile(lat, 0.99))
		count[c] += len(lat)
		lags = append(lags, msOf(lag)...)
		backlog = max(backlog, bl)
	}
	for c, name := range classNames {
		p.set(name+"_p50_ms", median(perWindow[c][0]), "ms", count[c])
		p.set(name+"_p99_ms", median(perWindow[c][1]), "ms", count[c])
		p.set(name+"_repeat_frac", float64(repeats[c])/float64(count[c]), "ratio", count[c])
	}
	p.set("read_ref_rps", sz.ReadRefRate, "req/s", 0)
	p.primary = p.metrics["local_p50_ms"].Value / 1e3
	sort.Float64s(lags)
	p.tr.put("loadgen.lag_p99_ms", quantile(lags, 0.99))
	p.tr.put("loadgen.backlog_max", float64(backlog))

	costSecs := costShare * p.cfg.Seconds
	e.cost(ctx, p, rng, time.Duration(costSecs*float64(time.Second)))

	// read_max_rps has a cliff: when host stalls alone break the limit,
	// no rate passes and it reads 0. The saturation rate has none: such
	// noise lowers it in proportion.
	satSecs := satShare * p.cfg.Seconds
	sat, n := e.saturate(ctx, p, rng, time.Duration(satSecs*float64(time.Second)))
	p.set("read_sat_rps", sat, "req/s", n)

	// Search from 85% of the saturation rate: an open loop queues more
	// than a closed one, so the limit is met below it. Step by 15% up or
	// down until a passing and a failing rate bracket the limit, then
	// bisect. A failing step is run again and fails only if it fails
	// twice, so one burst of host noise cannot end the search.
	rate := max(sz.ReadStartRate, 0.85*sat)
	passes := func(rate float64) bool {
		for try := 0; try < 2; try++ {
			reqs := e.schedule(rng, max(1, int(rate*sz.ReadStep.Seconds())), -1)
			lat, lag, _ := e.step(ctx, p, reqs, rate)
			sort.Float64s(lat)
			if quantile(lat, 0.99) <= millis(readLimit) && millis(lag[len(lag)-1]) <= millis(readLimit) {
				return true
			}
		}
		return false
	}
	lo, hi := 0.0, math.Inf(1)
	deadline := time.Now().Add(time.Duration((p.cfg.Seconds - refSecs - costSecs - satSecs) * float64(time.Second)))
	steps := 0
	for ; time.Now().Add(sz.ReadStep).Before(deadline) || steps == 0; steps++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if passes(rate) {
			lo = rate
		} else {
			hi = rate
		}
		switch {
		case math.IsInf(hi, 1):
			rate = lo * 1.15
		case lo == 0:
			rate = hi / 1.15
		default:
			rate = (lo + hi) / 2
		}
	}
	p.set("read_max_rps", lo, "req/s", steps)
	p.set("read_limit_ms", millis(readLimit), "ms", 0)

	sims, err := e.f.counter(ctx, "netcached_simulations_total")
	if err != nil {
		return err
	}
	p.res.check(sims == 0, "svc-read simulated %d specs; every request should be a store hit", sims)
	if p.tr != nil {
		return e.probeTiers(p)
	}
	return nil
}

// cost sends each class's requests one at a time on one connection, in
// windows that take turns between the classes, for d in all. For each
// class it records the process CPU time per request, the median over the
// class's windows, and the requests that rate of CPU time serves per
// second. Nothing else runs meanwhile, so the CPU time is the request's:
// client, server, store and, for proxied requests, the second node.
func (e *readEnv) cost(ctx context.Context, p *pass, rng *rand.Rand, d time.Duration) {
	window := d / costWindows
	perReq := make([][]float64, len(classNames))
	count := make([]int, len(classNames))
	for w := 0; w < costWindows && ctx.Err() == nil; w++ {
		c := w % len(classNames)
		reqs := e.schedule(rng, int(window.Seconds()*satMaxRate)+1, c)
		deadline := time.Now().Add(window)
		cpu0, n := cpuTime(), 0
		for ; n < len(reqs) && (n == 0 || time.Now().Before(deadline)); n++ {
			e.send(ctx, p, reqs[n])
		}
		perReq[c] = append(perReq[c], float64((cpuTime()-cpu0).Nanoseconds())/1e3/float64(n))
		count[c] += n
	}
	for c, name := range classNames {
		us := median(perReq[c])
		p.set(name+"_cpu_us", us, "us", count[c])
		p.set(name+"_per_cpu_s", 1e6/us, "1/s", count[c])
	}
}

// saturate sends local and proxied requests back to back on the
// generator's connections (a closed loop) for d. It returns the requests
// that succeeded per second, and their count.
func (e *readEnv) saturate(ctx context.Context, p *pass, rng *rand.Rand, d time.Duration) (float64, int) {
	reqs := e.schedule(rng, int(d.Seconds()*satMaxRate)+1, -1)
	var next, done atomic.Int64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(loadConc())) // as withLoadProcs
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < loadConc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if e.send(ctx, p, reqs[i]) {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds(), int(done.Load())
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeTiers times direct Get calls on each store tier, on a separate
// untraced store whose first half of entries is compacted into cold
// segments.
func (e *readEnv) probeTiers(p *pass) error {
	const n = 256
	st, err := store.OpenOptions(filepath.Join(e.f.dir, "probe"), store.Options{HotMaxBytes: 1})
	if err != nil {
		return err
	}
	defer st.Close()
	key := func(i int) string { return sha([]byte("probe " + strconv.Itoa(i))) }
	for i := 0; i < 2*n; i++ {
		if err := st.Put(key(i), e.expect[i%len(e.expect)]); err != nil {
			return err
		}
		if i == n-1 {
			if migrated, _ := st.Compact(); migrated == 0 {
				return fmt.Errorf("compaction migrated nothing to the cold tier")
			}
		}
	}
	for i := 0; i < n; i++ {
		id := p.tr.begin("store.cold_get", 0, 0)
		_, err := st.Cold().Get(key(i))
		p.tr.end(id)
		p.res.check(err == nil, "cold tier probe: %v", err)
		id = p.tr.begin("store.hot_get", 0, 0)
		_, err = st.Hot().Get(key(n + i))
		p.tr.end(id)
		p.res.check(err == nil, "hot tier probe: %v", err)
	}
	return nil
}
