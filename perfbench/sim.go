package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"netcache"
	"netcache/internal/apps"
	"netcache/internal/machine"
)

// The sim workload runs one simulation at a time through netcache.RunContext
// in two classes. The full class is dominated by engine hand-offs, the
// sampled class by the functional fast-forward (parallel rounds on dmon-i,
// none on netcache), so an engine change and a sampler change each move
// mostly one class.
var (
	fullApps    = []string{"gauss", "sor", "radix", "cg"}
	sampledApps = []string{"gauss", "radix", "cg"}
	simSystems  = []netcache.System{netcache.SystemNetCache, netcache.SystemDMONI}
	sampledP    = []int{16, 64}
)

// samplingSeeds is how many sampling seeds the recorded digests cover.
const samplingSeeds = 8

func fullClass(sz sizes) []netcache.RunSpec {
	var specs []netcache.RunSpec
	for _, app := range fullApps {
		for _, sys := range simSystems {
			specs = append(specs, netcache.RunSpec{App: app, System: sys, Scale: sz.FullScale, Verify: true, Config: netcache.Config{Procs: 16}})
		}
	}
	return specs
}

// sampledClass gives the i-th sampled spec the sampling seed
// (seed+i) mod 8 + 1. Spreading the seeds over the specs keeps the class's
// cost from shifting with the workload seed as a whole, while the seed
// still decides every spec's intervals.
func sampledClass(sz sizes, seed uint64) []netcache.RunSpec {
	var specs []netcache.RunSpec
	for _, app := range sampledApps {
		for _, sys := range simSystems {
			for _, p := range sampledP {
				specs = append(specs, netcache.RunSpec{
					App: app, System: sys, Scale: sz.SampledScale, Verify: true,
					Config:   netcache.Config{Procs: p},
					Sampling: &netcache.Sampling{Mode: netcache.SampleStratified, Seed: (seed+uint64(len(specs)))%samplingSeeds + 1},
				})
			}
		}
	}
	return specs
}

// digest is the recorded SHA-256 of one simulation's result: of the JSON
// encoding of its netcache.Result, and of Result.Raw alone (what a run
// decomposed through NewMachine, Setup and apps.RunContext returns).
type digest struct {
	Label  string `json:"label"`
	Result string `json:"result"`
	Raw    string `json:"raw"`
}

// digestBook maps a spec's canonical key to its recorded digest.
type digestBook map[string]digest

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (digestBook, error) {
	var book digestBook
	if err := json.Unmarshal(digestsJSON, &book); err != nil {
		return nil, fmt.Errorf("reading digests.json: %w", err)
	}
	return book, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func label(s netcache.RunSpec) string {
	l := fmt.Sprintf("%s/%s/p%d/scale%g", s.App, s.System, s.Config.Procs, s.Scale)
	if s.Sampling != nil {
		l += fmt.Sprintf("/%s-seed%d", s.Sampling.Mode, s.Sampling.Seed)
	}
	return l
}

// digestsMain re-records digests.json from the current simulator: every
// full-class spec, and every sampled-class spec at each sampling seed.
func digestsMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench digests", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "perfbench/digests.json", "output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz := defaultSizes()
	specs := fullClass(sz)
	for s := uint64(0); s < samplingSeeds; s++ {
		specs = append(specs, sampledClass(sz, s)...)
	}
	book, err := recordDigests(ctx, specs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench digests:", err)
		return 1
	}
	b, err := json.MarshalIndent(book, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench digests:", err)
		return 1
	}
	fmt.Fprintf(stdout, "recorded %d digests in %s\n", len(book), *out)
	return 0
}

// recordDigests simulates specs and returns their digests.
func recordDigests(ctx context.Context, specs []netcache.RunSpec) (digestBook, error) {
	book := digestBook{}
	for _, br := range netcache.RunBatch(ctx, netcache.BatchOptions{}, specs) {
		if br.Err != nil {
			return nil, fmt.Errorf("%s: %w", label(br.Spec), br.Err)
		}
		key, err := br.Spec.Key()
		if err != nil {
			return nil, err
		}
		res, err := json.Marshal(br.Result)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(br.Result.Raw)
		if err != nil {
			return nil, err
		}
		book[key] = digest{Label: label(br.Spec), Result: sha(res), Raw: sha(raw)}
	}
	return book, nil
}

type simEnv struct {
	full, sampled []netcache.RunSpec
}

// setupSim runs one untimed warm-up simulation.
func setupSim(ctx context.Context, cfg *config, _ *tracer) (env, error) {
	if err := warmUp(ctx); err != nil {
		return nil, err
	}
	return &simEnv{full: fullClass(cfg.Sizes), sampled: sampledClass(cfg.Sizes, cfg.Seed)}, nil
}

func (e *simEnv) close() {}

// simClass accumulates one class's simulations, by spec.
type simClass struct {
	refs map[int]float64   // references per spec (fixed by the spec)
	ms   map[int][]float64 // host milliseconds of each run of a spec
	cpu  map[int][]float64 // and the process CPU milliseconds it took
}

func newSimClass() simClass {
	return simClass{refs: map[int]float64{}, ms: map[int][]float64{}, cpu: map[int][]float64{}}
}

// roundMs is the time of one round over the class: the sum over specs of
// each spec's median run time (specs whose every run failed a check are
// left out; the failures already mark the run incorrect). Medians keep a
// run the host slowed down, or one the Go scheduler placed badly, from
// setting the result. It serves for wall and CPU times alike.
func roundMs(runs map[int][]float64) (total, slowest float64) {
	for _, ms := range runs {
		m := median(ms)
		total += m
		slowest = max(slowest, m)
	}
	return total, slowest
}

func (c simClass) totalRefs() float64 {
	var t float64
	for _, r := range c.refs {
		t += r
	}
	return t
}

// measure alternates whole rounds of the two classes, each round in a
// seed-shuffled order, until the time is up (at least one round each).
// Alternating lets both classes see the same spells of host load.
func (e *simEnv) measure(ctx context.Context, p *pass) error {
	rng := rand.New(rand.NewSource(int64(splitmix64(p.cfg.Seed))))
	budget := time.Duration(p.cfg.Seconds * float64(time.Second))
	classes := [2]simClass{newSimClass(), newSimClass()}
	var samp machine.SampleStats
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for c, specs := range [][]netcache.RunSpec{e.full, e.sampled} {
			cl := &classes[c]
			for _, i := range rng.Perm(len(specs)) {
				if err := ctx.Err(); err != nil {
					return err
				}
				refs, wall, cpu, ss := e.runOne(ctx, p, specs[i], c == 0)
				if wall == 0 {
					continue
				}
				cl.refs[i] = refs
				cl.ms[i] = append(cl.ms[i], millis(wall))
				cl.cpu[i] = append(cl.cpu[i], millis(cpu))
				if ss != nil {
					samp.TotalRefs += ss.TotalRefs
					samp.FuncRefs += ss.FuncRefs
					samp.Rounds += ss.Rounds
					samp.RoundRefs += ss.RoundRefs
				}
			}
		}
	}
	full, sampled := classes[0], classes[1]
	fullMs, fullSlowest := roundMs(full.ms)
	sampledMs, sampledSlowest := roundMs(sampled.ms)
	fullCPU, _ := roundMs(full.cpu)
	sampledCPU, _ := roundMs(sampled.cpu)
	runs := func(c simClass) int {
		n := 0
		for _, ms := range c.ms {
			n += len(ms)
		}
		return n
	}
	p.set("full_mrefs_per_s", full.totalRefs()/fullMs/1e3, "Mref/s", runs(full))
	p.set("sampled_mrefs_per_s", sampled.totalRefs()/sampledMs/1e3, "Mref/s", runs(sampled))
	p.set("full_round_ms", fullMs, "ms", runs(full))
	p.set("sampled_round_ms", sampledMs, "ms", runs(sampled))
	p.set("slowest_sim_ms", max(fullSlowest, sampledSlowest), "ms", runs(full)+runs(sampled))
	p.set("full_round_cpu_ms", fullCPU, "ms", runs(full))
	p.set("sampled_round_cpu_ms", sampledCPU, "ms", runs(sampled))
	p.set("full_refs_per_cpu_s", full.totalRefs()/fullCPU*1e3, "1/s", runs(full))
	p.set("sampled_refs_per_cpu_s", sampled.totalRefs()/sampledCPU*1e3, "1/s", runs(sampled))
	p.primary = fullMs / 1e3 / full.totalRefs()

	if p.tr != nil && samp.TotalRefs > 0 {
		p.tr.put("sampler.func_ref_frac", float64(samp.FuncRefs)/float64(samp.TotalRefs))
		p.tr.put("sampler.detailed_refs", float64(samp.TotalRefs-samp.FuncRefs))
		p.tr.put("sampler.rounds", float64(samp.Rounds))
		if samp.FuncRefs > 0 {
			p.tr.put("sampler.round_ref_frac", float64(samp.RoundRefs)/float64(samp.FuncRefs))
		}
	}
	return nil
}

// runOne runs and checks one simulation. It returns the references it
// simulated (Sampled.TotalRefs for a sampled run), its wall time (0 when it
// failed), the process CPU time it took and its sampling record. A traced full-class run is decomposed
// into NewMachine, Setup and apps.RunContext so each gets its own span.
func (e *simEnv) runOne(ctx context.Context, p *pass, spec netcache.RunSpec, fullClass bool) (float64, time.Duration, time.Duration, *machine.SampleStats) {
	tr := p.tr
	p.res.attempt(1)
	kid := tr.begin("spec.key", 0, 0)
	key, err := spec.Key()
	tr.end(kid)
	want, ok := p.cfg.Digests[key]
	if err != nil || !ok {
		p.res.fail("%s: no recorded digest (%v)", label(spec), err)
		return 0, 0, 0, nil
	}

	if tr != nil && fullClass {
		start, cpu0 := time.Now(), cpuTime()
		rs, err := runDecomposed(ctx, tr, spec)
		wall, cpu := time.Since(start), cpuTime()-cpu0
		if err != nil {
			p.res.fail("%s: %v", label(spec), err)
			return 0, 0, 0, nil
		}
		raw, err := json.Marshal(rs)
		if err != nil || sha(raw) != want.Raw {
			p.res.fail("%s: decomposed run differs from the recorded undecomposed run", label(spec))
			return 0, 0, 0, nil
		}
		countWork(tr, rs)
		t := rs.Totals()
		return float64(t.Reads + t.Writes), wall, cpu, nil
	}

	sid := tr.begin("sim.run", 0, 0)
	start, cpu0 := time.Now(), cpuTime()
	res, err := netcache.RunContext(ctx, spec)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	tr.end(sid)
	if err != nil {
		p.res.fail("%s: %v", label(spec), err)
		return 0, 0, 0, nil
	}
	eid := tr.begin("result.encode", 0, 0)
	body, err := json.Marshal(res)
	tr.end(eid)
	if err != nil || sha(body) != want.Result {
		p.res.fail("%s: result digest differs from the recorded one", label(spec))
		return 0, 0, 0, nil
	}
	countWork(tr, res.Raw)
	if res.Sampled != nil {
		return float64(res.Sampled.TotalRefs), wall, cpu, res.Raw.Sampling
	}
	return float64(res.Reads + res.Writes), wall, cpu, nil
}

// runDecomposed is netcache.RunContext for a full-detail spec, split at the
// public seams: NewMachine, the app's Setup and apps.RunContext.
func runDecomposed(ctx context.Context, tr *tracer, spec netcache.RunSpec) (machine.RunStats, error) {
	app, err := apps.New(spec.App)
	if err != nil {
		return machine.RunStats{}, err
	}
	m := netcache.NewMachine(spec.System, spec.Config)
	id := tr.begin("apps.setup", 0, 0)
	app.Setup(m, spec.Scale)
	tr.end(id)
	id = tr.begin("machine.run", 0, 0)
	rs, err := apps.RunContext(ctx, m, app)
	tr.end(id)
	if err != nil {
		return rs, err
	}
	if spec.Verify {
		err = app.Verify()
	}
	return rs, err
}

// countWork adds a run's work counts to the traced pass.
func countWork(tr *tracer, rs machine.RunStats) {
	t := rs.Totals()
	tr.add("machine.refs", float64(t.Reads+t.Writes))
	tr.add("mem.l2_misses", float64(t.L2Misses()))
	tr.add("ring.shared_hits", float64(t.SharedHits))
	tr.add("proto.updates", float64(t.UpdatesIssued))
}
