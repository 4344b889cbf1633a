package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig is a one-second run of workload at inputs small enough for a
// unit test, with digests recorded from the current simulator.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	t.Helper()
	sz := sizes{
		SetupReps:     1,
		FullScale:     0.02,
		SampledScale:  0.05,
		ReadKeys:      64,
		ReadRefRate:   200,
		ReadStartRate: 200,
		ReadStep:      100 * time.Millisecond,
		WriteRate:     20,
		WritePreload:  40,
		WriteScale:    0.25,
	}
	cfg := config{Workload: workload, Seed: 7, Seconds: 1, Trace: traced, Root: t.TempDir(), Sizes: sz}
	if workload == "sim" {
		specs := append(fullClass(sz), sampledClass(sz, cfg.Seed)...)
		book, err := recordDigests(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Digests = book
	}
	return cfg
}

// reportMetrics are the report metrics each workload must carry, with units.
var reportMetrics = map[string]map[string]string{
	"sim":       {"full_mrefs_per_s": "Mref/s", "sampled_mrefs_per_s": "Mref/s", "full_refs_per_cpu_s": "1/s", "sampled_refs_per_cpu_s": "1/s"},
	"svc-read":  {"local_p50_ms": "ms", "local_p99_ms": "ms", "proxied_p50_ms": "ms", "proxied_p99_ms": "ms", "uniform_p50_ms": "ms", "uniform_p99_ms": "ms", "read_sat_rps": "req/s", "read_max_rps": "req/s", "local_cpu_us": "us", "proxied_cpu_us": "us", "uniform_cpu_us": "us", "local_per_cpu_s": "1/s", "proxied_per_cpu_s": "1/s"},
	"svc-write": {"miss_p50_ms": "ms", "miss_p90_ms": "ms", "converge_s": "s", "miss_refs_per_cpu_s": "1/s", "reread_cpu_us": "us", "reread_per_cpu_s": "1/s"},
}

// lastLine prints res and decodes the result line, which must have
// exactly its four keys.
func lastLine(t *testing.T, res *result) line {
	t.Helper()
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("last line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	var l line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res, err := runWorkload(context.Background(), tinyConfig(t, w, true))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Problems)
			}
			want := map[string]string{"setup_s": "s", "setup_wall_s": "s", "peak_rss_mb": "MiB", "error_frac": "ratio"}
			for name, unit := range reportMetrics[w] {
				want[name] = unit
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("report metric %s = %+v, want unit %s", name, m, unit)
				}
			}

			l := lastLine(t, res)
			if !l.Correct || len(l.Metrics) != len(perLayer) {
				t.Errorf("traced line: correct=%v with %d metrics, want %d", l.Correct, len(l.Metrics), len(perLayer))
			}
			for name, unit := range perLayer {
				if l.Metrics[name].Unit != unit {
					t.Errorf("per-layer %s = %+v, want unit %s", name, l.Metrics[name], unit)
				}
			}
			if w == "sim" && (l.Metrics["sim.cpu_frac"].Value <= 0 || l.Metrics["engine.sched_cpu_frac"].Value <= 0) {
				t.Errorf("CPU profile attributed nothing to the engine: %+v", l.Metrics)
			}

			res.Trace = false
			l = lastLine(t, res)
			if len(l.Metrics) != len(endToEnd) {
				t.Errorf("untraced line has %d metrics, want %d", len(l.Metrics), len(endToEnd))
			}
			for _, e := range endToEnd {
				if m := l.Metrics[e.name]; m.Unit != e.unit || !(m.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", e.name, m, e.unit)
				}
			}
		})
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// metrics the benchmark prints, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, benchmark prints %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, benchmark prints %d", len(bench.PerLayer), len(perLayer))
	}
	for _, m := range bench.PerLayer {
		if perLayer[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %s, benchmark %q", m.Name, m.Unit, perLayer[m.Name])
		}
	}
}

func TestWrongDigestIsAnError(t *testing.T) {
	cfg := tinyConfig(t, "sim", false)
	for key, d := range cfg.Digests {
		d.Result = strings.Repeat("0", len(d.Result))
		cfg.Digests[key] = d
		break
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["error_frac"].Value <= 0 {
		t.Fatalf("error_frac = %v with a wrong digest", res.Metrics["error_frac"].Value)
	}
}

func TestWrongBodyIsAnError(t *testing.T) {
	cfg := tinyConfig(t, "svc-read", false)
	cfg.alterBody = true
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["error_frac"].Value <= 0 {
		t.Fatalf("error_frac = %v with a wrong body", res.Metrics["error_frac"].Value)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name         string
		p, c         []float64
		higher       bool
		alternated   bool
		moreFailures bool
		want         string
	}{
		{"faster", base, scaled(0.8), false, true, false, "improved"},
		{"faster but more failures", base, scaled(0.8), false, true, true, "unchanged"},
		{"slower beyond bound", base, scaled(1.2), false, true, false, "worse"},
		{"slower within bound", base, scaled(1.05), false, true, false, "unchanged"},
		{"higher is better", base, scaled(1.2), true, true, false, "improved"},
		{"too few pairs", base[:9], scaled(0.8)[:9], false, true, false, "unresolved"},
		{"not alternated", base, scaled(0.8), false, false, false, "unresolved"},
		{"spread wider than bound", []float64{50, 150, 60, 140, 100, 100, 55, 145, 100, 100}, base, false, true, false, "unresolved"},
	}
	for _, tc := range cases {
		if got := judge(tc.p, tc.c, tc.higher, 0.1, tc.alternated, tc.moreFailures); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string) string {
		var out bytes.Buffer
		res := &result{Workload: "sim", Host: host{CPU: cpu, NProc: 2}, Metrics: map[string]metric{}}
		if err := printResult(&out, res); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, same, other := write("parent", "cpu A"), write("same", "cpu A"), write("other", "cpu B")
	var stdout, stderr bytes.Buffer
	if code := compareMain([]string{"-bench", "../BENCHMARK.json", parent, same}, &stdout, &stderr); code != 0 {
		t.Fatalf("same host: exit %d: %s", code, stderr.String())
	}
	if code := compareMain([]string{"-bench", "../BENCHMARK.json", parent, other}, &stdout, &stderr); code != 2 {
		t.Fatalf("different hosts: exit %d, want 2", code)
	}
}
