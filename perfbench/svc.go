package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netcache"
	"netcache/internal/cluster"
	"netcache/internal/server"
	"netcache/internal/store"
)

// peerName is node i's name on the ring. Ring placement hashes peer names,
// so fixed names make placement a function of the seed alone; the fleet's
// dialer maps each name to the node's real listener. The names point at
// unused privileged local ports, so a request that bypassed the dialer
// would fail locally rather than go anywhere else.
func peerName(i int) string { return "http://127.0.0.1:" + strconv.Itoa(i+1) }

// idle is the period of the server's timer-driven repair loops (hinted
// handoff, periodic rebalance, anti-entropy): long enough that none fires
// during a run, so only the epoch-triggered rebalance pass is measured.
const idle = time.Hour

// fleet is the in-process cluster of one set-up.
type fleet struct {
	tr  *tracer
	dir string // the set-up's scratch directory, removed by close

	mu    sync.Mutex
	addrs map[string]string // ring host:port -> listener address
	nodes []*node

	transport *http.Transport // every benchmark HTTP client dials through it
}

// node is one netcached server of the fleet.
type node struct {
	name string
	st   *store.Store // nil: the node has no store
	srv  *server.Server
	hs   *http.Server

	served chan error
}

func newFleet(cfg *config, tr *tracer, prefix string) (*fleet, error) {
	root, err := cfg.scratchDir()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, prefix)
	if err != nil {
		return nil, err
	}
	f := &fleet{tr: tr, dir: dir, addrs: map[string]string{}}
	f.transport = &http.Transport{
		DialContext:         f.dial,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     time.Minute,
	}
	return f, nil
}

func (f *fleet) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	f.mu.Lock()
	real, ok := f.addrs[addr]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("perfbench: no node named %s", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, real)
}

// openStore opens node i's on-disk store; tracing times its file system.
func (f *fleet) openStore(i int) (*store.Store, *keySpans, error) {
	keys := &keySpans{m: map[string]spanRef{}}
	opt := store.Options{}
	if f.tr != nil {
		opt.FS = &tracedFS{FS: store.NewFaultFS(nil), tr: f.tr, keys: keys, puts: map[string]int64{}}
	}
	st, err := store.OpenOptions(filepath.Join(f.dir, "node"+strconv.Itoa(i)), opt)
	return st, keys, err
}

// boot starts node i with membership peers over st (nil: no store).
func (f *fleet) boot(i int, peers []string, st *store.Store, keys *keySpans) (*node, error) {
	name := peerName(i)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{Self: name, Peers: peers, Replication: 1, ProbeInterval: time.Second})
	if err != nil {
		l.Close()
		return nil, err
	}
	cfg := server.Config{
		Store:               st,
		Cluster:             cl,
		Internode:           f.internode,
		RepairInterval:      idle,
		RebalanceInterval:   idle,
		AntiEntropyInterval: idle,
	}
	if f.tr != nil {
		if keys == nil {
			keys = &keySpans{m: map[string]spanRef{}}
		}
		cfg.RunFunc = tracedRun(f.tr, keys)
	}
	n := &node{name: name, st: st, srv: server.New(cfg), served: make(chan error, 1)}
	h := n.srv.Handler()
	if f.tr != nil {
		h = tracedHandler(f.tr, keys, h)
	}
	n.hs = &http.Server{Handler: h}
	f.mu.Lock()
	f.addrs[strings.TrimPrefix(name, "http://")] = l.Addr().String()
	f.nodes = append(f.nodes, n)
	f.mu.Unlock()
	go func() { n.served <- n.hs.Serve(l) }()
	return n, nil
}

// internode is server.Config.Internode: peers reach each other through the
// fleet's dialer, and with tracing through the hop-timing transport.
func (f *fleet) internode(peer string) *server.Client {
	var rt http.RoundTripper = f.transport
	if f.tr != nil {
		rt = &hopTransport{base: f.transport, tr: f.tr}
	}
	return &server.Client{
		BaseURL:    peer,
		HTTPClient: &http.Client{Transport: rt},
		Retry:      server.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
}

// client returns a plain client of node name for the load generator.
func (f *fleet) client(name string) *server.Client {
	return &server.Client{BaseURL: name, HTTPClient: &http.Client{Transport: f.transport}}
}

// close shuts every node down, waits for it, and removes the scratch
// directory.
func (f *fleet) close() {
	f.mu.Lock()
	nodes := f.nodes
	f.nodes = nil
	f.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The run is over: a shutdown error only means a slow drain, and
	// waiting for Serve to return is all that is left to do.
	for _, n := range nodes {
		n.srv.Shutdown(ctx)
		n.hs.Shutdown(ctx)
		<-n.served
		if n.st != nil {
			n.st.Close()
		}
	}
	f.transport.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// counter sums a Prometheus counter over the fleet's nodes.
func (f *fleet) counter(ctx context.Context, name string) (int, error) {
	f.mu.Lock()
	nodes := append([]*node(nil), f.nodes...)
	f.mu.Unlock()
	total := 0
	for _, n := range nodes {
		text, err := f.client(n.name).Metrics(ctx)
		if err != nil {
			return 0, err
		}
		for _, l := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(l, name+" "); ok {
				x, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil {
					return 0, err
				}
				total += x
			}
		}
	}
	return total, nil
}

// warmUp is the untimed warm-up simulation of every set-up.
func warmUp(ctx context.Context) error {
	_, err := netcache.RunContext(ctx, netcache.RunSpec{App: "gauss", System: netcache.SystemNetCache, Scale: 0.25})
	return err
}

// templateBodies returns the result bytes of small real simulations, one
// per app: the stored payloads of realistic size.
func templateBodies(ctx context.Context) ([][]byte, error) {
	var specs []netcache.RunSpec
	for _, app := range []string{"em3d", "fft", "gauss", "lu", "mg", "ocean", "raytrace", "sor", "water", "wf"} {
		specs = append(specs, netcache.RunSpec{App: app, System: netcache.SystemNetCache, Scale: 0.05})
	}
	var bodies [][]byte
	for _, br := range netcache.RunBatch(ctx, netcache.BatchOptions{}, specs) {
		if br.Err != nil {
			return nil, br.Err
		}
		b, err := json.Marshal(br.Result)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

// --- tracing seams ----------------------------------------------------------

// keySpans maps a spec key to the handler span serving it on one node, so
// spans without a request context (store file calls, the simulation) find
// their parent.
type keySpans struct {
	mu sync.Mutex
	m  map[string]spanRef
}

func (k *keySpans) enter(key string, ref spanRef) {
	k.mu.Lock()
	if _, ok := k.m[key]; !ok {
		k.m[key] = ref
	}
	k.mu.Unlock()
}

func (k *keySpans) leave(key string, id int64) {
	k.mu.Lock()
	if k.m[key].id == id {
		delete(k.m, key)
	}
	k.mu.Unlock()
}

func (k *keySpans) get(key string) spanRef {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.m[key]
}

// tracedHandler wraps Server.Handler: it times the request-body decode and
// the spec key on a copy of the body, then the handler itself.
func tracedHandler(tr *tracer, keys *keySpans, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := spanFromHeaders(r.Header)
		var key string
		switch {
		case r.URL.Path == "/v1/run" && r.Method == http.MethodPost:
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			id := tr.begin("spec.decode", ref.id, ref.req)
			var spec netcache.RunSpec
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&spec)
			tr.end(id)
			if err == nil {
				id = tr.begin("spec.key", ref.id, ref.req)
				key, _ = spec.Key()
				tr.end(id)
			}
		case strings.HasPrefix(r.URL.Path, "/v1/result/"):
			key = strings.TrimPrefix(r.URL.Path, "/v1/result/")
		}
		h := tr.begin("http.handler", ref.id, ref.req)
		if key != "" {
			keys.enter(key, spanRef{h, ref.req})
			defer keys.leave(key, h)
		}
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), h, ref.req)))
		tr.end(h)
	})
}

// tracedRun is a server.Config.RunFunc that times the simulation and the
// encoding of its result.
func tracedRun(tr *tracer, keys *keySpans) func(context.Context, netcache.RunSpec) (netcache.Result, error) {
	return func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		key, _ := spec.Key()
		parent := keys.get(key)
		id := tr.begin("server.simulate", parent.id, parent.req)
		res, err := netcache.RunContext(ctx, spec)
		tr.end(id)
		if err != nil {
			return res, err
		}
		countWork(tr, res.Raw)
		id = tr.begin("result.encode", parent.id, parent.req)
		_, err = json.Marshal(res)
		tr.end(id)
		return res, err
	}
}

// tracedFS is a store.FS that times the hot tier's file reads, LRU-clock
// updates and writes (temp file through rename).
type tracedFS struct {
	store.FS
	tr   *tracer
	keys *keySpans

	mu   sync.Mutex
	puts map[string]int64 // staged temp file -> its store.put span
}

func keyOfPath(name string) string { return strings.TrimSuffix(filepath.Base(name), ".res") }

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	ref := f.keys.get(keyOfPath(name))
	id := f.tr.begin("store.readfile", ref.id, ref.req)
	b, err := f.FS.ReadFile(name)
	f.tr.end(id)
	return b, err
}

func (f *tracedFS) Chtimes(name string, atime, mtime time.Time) error {
	ref := f.keys.get(keyOfPath(name))
	id := f.tr.begin("store.chtimes", ref.id, ref.req)
	err := f.FS.Chtimes(name, atime, mtime)
	f.tr.end(id)
	return err
}

func (f *tracedFS) WriteTemp(dir string, data []byte) (string, error) {
	id := f.tr.begin("store.put", 0, 0)
	tmp, err := f.FS.WriteTemp(dir, data)
	if err != nil {
		f.tr.end(id)
		return tmp, err
	}
	f.mu.Lock()
	f.puts[tmp] = id
	f.mu.Unlock()
	return tmp, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	f.mu.Lock()
	id, ok := f.puts[oldpath]
	delete(f.puts, oldpath)
	f.mu.Unlock()
	if ok {
		ref := f.keys.get(keyOfPath(newpath))
		f.tr.adopt(id, ref.id, ref.req)
		f.tr.end(id)
	}
	return err
}

// hopTransport times inter-node requests, which carry the
// X-Netcached-Internode header: proxied runs (cluster.hop), repair probes
// and pushes of /v1/result, and control traffic. It passes the hop's span
// on to the receiving node's handler.
type hopTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get("X-Netcached-Internode") == "" {
		return t.base.RoundTrip(req)
	}
	name := "cluster.ctl"
	switch {
	case req.URL.Path == "/v1/run":
		name = "cluster.hop"
	case strings.HasPrefix(req.URL.Path, "/v1/result/") && req.Method == http.MethodGet:
		name = "repair.probe"
	case strings.HasPrefix(req.URL.Path, "/v1/result/") && req.Method == http.MethodPut:
		name = "repair.push"
		t.tr.add("repair.bytes", float64(req.ContentLength))
	}
	ref := spanFrom(req.Context())
	id := t.tr.begin(name, ref.id, ref.req)
	req = req.Clone(req.Context())
	setSpanHeaders(req.Header, id, ref.req)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

// endOnClose ends a span when the response body is closed, so a hop's span
// covers reading the reply.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// --- open-loop load generator ----------------------------------------------

// timerSlack is how early a generator worker's timer fires before a
// request is due; sleepUntil covers the rest. Go's timers can fire up to
// about a millisecond late, which would otherwise add that much to every
// latency measured from the due time.
const timerSlack = time.Millisecond

// openLoop sends len(dues) requests, request i due at start+dues[i] (dues
// ascending), from conc workers. Each request is timed from when it was
// due, so a stall also delays every request queued behind it. It returns
// per-request latency and lag (how late it was sent), and the largest
// backlog of due but unsent requests.
func openLoop(ctx context.Context, conc int, dues []time.Duration, send func(ctx context.Context, i int)) (lat, lag []time.Duration, backlogMax int) {
	lat = make([]time.Duration, len(dues))
	lag = make([]time.Duration, len(dues))
	var next, backlog atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) || ctx.Err() != nil {
					return
				}
				due := start.Add(dues[i])
				if d := time.Until(due) - timerSlack; d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				sleepUntil(due)
				sent := time.Now()
				lag[i] = sent.Sub(due)
				// Due but unsent: every request due by now, minus those taken.
				pending := int64(countDue(dues, sent.Sub(start))) - int64(i) - 1
				for b := backlog.Load(); pending > b && !backlog.CompareAndSwap(b, pending); b = backlog.Load() {
				}
				send(ctx, i)
				lat[i] = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return lat, lag, int(backlog.Load())
}

// countDue returns how many of the ascending dues are at or before t.
func countDue(dues []time.Duration, t time.Duration) int {
	lo, hi := 0, len(dues)
	for lo < hi {
		mid := (lo + hi) / 2
		if dues[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// evenDues spaces n requests at a constant offered rate.
func evenDues(n int, rate float64) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return d
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
