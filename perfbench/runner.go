package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is one set-up workload, ready to measure.
type env interface {
	// measure runs the workload for p.cfg.Seconds and records its metrics
	// in p. It returns an error only when the run cannot continue; failed
	// operations and checks are counted in p.res instead.
	measure(ctx context.Context, p *pass) error
	// close stops everything the set-up started and waits for it.
	close()
}

// setupFunc builds an env: every step from the start of a run to its first
// timed operation. tr is nil for untraced passes.
type setupFunc func(ctx context.Context, cfg *config, tr *tracer) (env, error)

var workloads = map[string]setupFunc{
	"sim":       setupSim,
	"svc-read":  setupRead,
	"svc-write": setupWrite,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pass is one measurement of a workload: untraced, or traced (tr != nil).
type pass struct {
	cfg     *config
	tr      *tracer
	res     *result
	metrics map[string]metric

	// primary is the pass's headline time (seconds per unit of work), the
	// base of the tracing-overhead ratio.
	primary float64
}

// set records a metric. A value that is not finite (a ratio over no
// samples, or a percentile that reached a failed request) is recorded as
// 0; the failures behind it already mark the run incorrect.
func (p *pass) set(name string, value float64, unit string, n int) {
	p.metrics[name] = metric{Value: finite(value), Unit: unit, N: n}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// withLoadProcs runs f with loadConc processors. The rest of a run keeps
// GOMAXPROCS at 1: process CPU time is what the end-to-end metrics
// measure, and with one simulation or request in flight a second
// processor adds only hand-offs between threads (spinning, futex wake-ups,
// interrupts between vCPUs), whose cost moves with the load other machines
// put on a shared host. On 2 vCPUs they made up about 40% of an svc-read
// request's CPU time and doubled its spread over runs. Only the phases
// that send requests concurrently use withLoadProcs.
func withLoadProcs(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(loadConc()))
	f()
}

// runWorkload sets the workload up SetupReps times (keeping the last),
// measures it, and with tracing adds a traced pass on a fresh set-up.
// setup_s is the median process CPU time of a set-up, setup_wall_s its
// median wall time.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	setup := workloads[cfg.Workload]
	res := &result{
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
		Trace:    cfg.Trace,
		Started:  time.Now().UTC(),
		Host:     hostStamp(cfg.Root),
		Metrics:  map[string]metric{},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var setups, setupsWall []float64
	var e env
	for i := 0; i < max(cfg.Sizes.SetupReps, 1); i++ {
		if e != nil {
			e.close()
		}
		start, cpu0 := time.Now(), cpuTime()
		var err error
		if e, err = setup(ctx, &cfg, nil); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		setupsWall = append(setupsWall, time.Since(start).Seconds())
	}
	plain := &pass{cfg: &cfg, res: res, metrics: res.Metrics}
	steal0, total0 := cpuTicks()
	err := e.measure(ctx, plain)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		res.HostSteal = (steal1 - steal0) / (total1 - total0)
	}
	e.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	plain.set("setup_s", median(setups), "s", len(setups))
	plain.set("setup_wall_s", median(setupsWall), "s", len(setupsWall))
	plain.set("peak_rss_mb", peakRSSMiB(), "MiB", 0)

	if cfg.Trace {
		if err := tracedPass(ctx, &cfg, setup, res, plain.primary); err != nil {
			return nil, err
		}
	}
	plain.set("error_frac", errorFrac(res), "ratio", res.Attempted)
	return res, nil
}

func errorFrac(res *result) float64 {
	if res.Attempted == 0 {
		return 0
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// tracedPass measures the workload again with spans, a CPU profile and
// runtime counters, and fills res.Layers.
func tracedPass(ctx context.Context, cfg *config, setup setupFunc, res *result, untraced float64) error {
	tr := newTracer()
	e, err := setup(ctx, cfg, tr)
	if err != nil {
		return fmt.Errorf("%s traced set-up: %w", cfg.Workload, err)
	}
	p := &pass{cfg: cfg, tr: tr, res: res, metrics: map[string]metric{}}
	if err := tr.start(); err != nil {
		e.close()
		return err
	}
	err = e.measure(ctx, p)
	prof := tr.stop()
	e.close()
	if err != nil {
		return fmt.Errorf("%s traced: %w", cfg.Workload, err)
	}
	dir, err := cfg.scratchDir()
	if err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%d", cfg.Workload, cfg.Seed))
	res.Spans, res.Profile = base+".spans.jsonl", base+".cpu.pprof"
	if err := tr.writeSpans(res.Spans); err != nil {
		return err
	}
	if err := os.WriteFile(res.Profile, tr.prof.Bytes(), 0o644); err != nil {
		return err
	}
	res.Layers, res.SelfTime = tr.layers(prof)
	overhead := 0.0
	if untraced > 0 {
		overhead = p.primary/untraced - 1
	}
	res.Layers["trace.overhead_frac"] = metric{Value: overhead, Unit: "ratio"}
	return nil
}

// host identifies the machine and code a result comes from. Results from
// different hosts are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

// sameMachine reports whether two results ran on the same host setup.
func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.Go == o.Go
}

func hostStamp(root string) host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks returns the CPU time, in clock ticks summed over the host's
// processors, that the hypervisor gave to other machines (steal) and the
// total. Both are 0 where /proc/stat cannot be read.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even in a checkout without git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "digests.json" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (NaN when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// splitmix64 derives independent, reproducible values from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
