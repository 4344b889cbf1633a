// Command perfbench is the same-host benchmark of the netcache simulator and
// the netcached service. One run measures one workload for a fixed time,
// checks every output, and prints every metric by name with its unit:
//
//	perfbench --workload sim|svc-read|svc-write --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports end-to-end metrics. With --trace 1 it runs the
// workload twice, untraced and then traced, and reports per-layer metrics,
// the tracing overhead, and a spans file. The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the line
// before it is the full report ({"perfbench": ...}) that "perfbench compare"
// reads. README.md describes the workloads and metrics.
//
// Subcommands:
//
//	perfbench compare [-bench BENCHMARK.json] PARENT CHANGE   compare two sets of runs
//	perfbench digests [-o digests.json]                       re-record the sim digests
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "digests":
			return digestsMain(ctx, args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: sim, svc-read or svc-write")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per pass")
	traced := fs.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under ROOT/.bench_build/perfbench")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	digests, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  float64(*seconds),
		Trace:    *traced == 1,
		Root:     *root,
		Sizes:    defaultSizes(),
		Digests:  digests,
	}
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// sizes holds the workloads' input sizes. Runs use defaultSizes; the
// package's tests shrink them.
type sizes struct {
	SetupReps int // set-ups per run; setup_s is their median

	FullScale    float64 // sim, full class: input scale at P=16
	SampledScale float64 // sim, sampled class: input scale at P=16 and P=64

	ReadKeys      int           // svc-read: distinct stored specs
	ReadRefRate   float64       // svc-read: reference offered rate, req/s
	ReadStartRate float64       // svc-read: lowest first rate of the max-rate search
	ReadStep      time.Duration // svc-read: length of one search step

	WriteRate    float64 // svc-write: offered rate of new specs, req/s
	WritePreload int     // svc-write: keys stored before the traffic
	WriteScale   float64 // svc-write: multiplier on the per-app miss scales
}

func defaultSizes() sizes {
	return sizes{
		SetupReps:     5,
		FullScale:     0.25,
		SampledScale:  0.5,
		ReadKeys:      4096,
		ReadRefRate:   1250,
		ReadStartRate: 500,
		ReadStep:      time.Second,
		WriteRate:     15,
		WritePreload:  2400,
		WriteScale:    1,
	}
}

// config is one run's settings.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measured seconds per pass
	Trace    bool
	Root     string // checkout root
	Sizes    sizes
	Digests  digestBook // expected sim result digests

	// alterBody makes svc-read expect altered bytes for one key, so the
	// body check must fail; only the package's tests set it.
	alterBody bool
}

// scratchDir returns the directory that holds the run's stores, spans and
// profiles, creating it.
func (c *config) scratchDir() (string, error) {
	dir := filepath.Join(c.Root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// metric is one measured value. N is the sample count behind a timing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run's report.
type result struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Trace     bool                `json:"trace"`
	Started   time.Time           `json:"started"`
	Host      host                `json:"host"`
	HostSteal float64             `json:"host_steal_frac"` // over the untraced pass
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Problems  []string            `json:"problems,omitempty"`
	Metrics   map[string]metric   `json:"metrics"`
	Layers    map[string]metric   `json:"layers,omitempty"`
	SelfTime  map[string]spanStat `json:"self_time,omitempty"`
	Spans     string              `json:"spans,omitempty"`   // traced pass's spans file
	Profile   string              `json:"profile,omitempty"` // and its CPU profile

	mu sync.Mutex
}

// maxProblems bounds how many failed checks a report spells out.
const maxProblems = 20

// attempt counts n operations or checks.
func (r *result) attempt(n int) {
	r.mu.Lock()
	r.Attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// check counts one check and fails it unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(format, args...)
	}
}

// endToEnd lists BENCHMARK.json's end-to-end metrics. Every run must report
// each of them, so each stands for one role that every workload fills with
// one of its own metrics (README.md, "End-to-end metrics"). The timed roles
// are rates per second of process CPU time, which leaves out the time the
// hypervisor gives to other machines.
var endToEnd = []struct {
	name, unit string
	from       map[string]string // workload -> report metric
}{
	{"setup_s", "s", sameOnAll("setup_s")},
	{"peak_rss_mb", "MiB", sameOnAll("peak_rss_mb")},
	{"primary_per_cpu_s", "1/s", map[string]string{"sim": "full_refs_per_cpu_s", "svc-read": "local_per_cpu_s", "svc-write": "miss_refs_per_cpu_s"}},
	{"secondary_per_cpu_s", "1/s", map[string]string{"sim": "sampled_refs_per_cpu_s", "svc-read": "proxied_per_cpu_s", "svc-write": "reread_per_cpu_s"}},
}

func sameOnAll(name string) map[string]string {
	m := map[string]string{}
	for w := range workloads {
		m[w] = name
	}
	return m
}

// gateMetrics returns the end-to-end metrics of res under their
// BENCHMARK.json names.
func gateMetrics(res *result) map[string]metric {
	out := map[string]metric{}
	for _, e := range endToEnd {
		m := res.Metrics[e.from[res.Workload]]
		out[e.name] = metric{Value: m.Value, Unit: e.unit}
	}
	return out
}

// line is the last line of a run's output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the human-readable metrics, the report line and the
// result line.
func printResult(w io.Writer, res *result) error {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s host_steal_frac=%.4f\n",
		res.Workload, res.Seed, res.Trace, res.Host.CPU, res.Host.NProc, res.Host.GOMAXPROCS, res.Host.Go, res.Host.Commit, res.Host.Source, res.HostSteal)
	writeMetrics(w, "", res.Metrics)
	if res.Trace {
		writeMetrics(w, "layer ", res.Layers)
		names := make([]string, 0, len(res.SelfTime))
		for n := range res.SelfTime {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := res.SelfTime[n]
			fmt.Fprintf(w, "  span %-24s n=%-7d total=%.3fms self=%.3fms\n", n, s.N, s.TotalMs, s.SelfMs)
		}
		fmt.Fprintf(w, "  spans written to %s, CPU profile to %s\n", res.Spans, res.Profile)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	report, err := json.Marshal(map[string]*result{"perfbench": res})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", report)
	l := line{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed}
	if res.Trace {
		l.Metrics = res.Layers
	} else {
		l.Metrics = gateMetrics(res)
	}
	last, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func writeMetrics(w io.Writer, prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "  %s%-28s %14.6g %s", prefix, n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " (n=%d)", m.N)
		}
		fmt.Fprintln(w)
	}
}
