package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparator reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of runs, parent and change, each a file or
// a directory of files holding the standard output of perfbench runs. It
// refuses runs from different hosts. For each workload and each metric,
// first BENCHMARK.json's end-to-end metrics and then the rest of the
// report, it reports improved, unchanged, worse or unresolved. It exits 1
// when any pair is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] PARENT CHANGE")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	var sides [2][]*result
	for i, path := range fs.Args() {
		if sides[i], err = readRuns(path); err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		if len(sides[i]) == 0 {
			fmt.Fprintf(stderr, "perfbench compare: no untraced runs in %s\n", path)
			return 2
		}
	}
	ref := sides[0][0]
	for _, side := range sides {
		for _, r := range side {
			if !r.Host.sameMachine(ref.Host) {
				fmt.Fprintf(stderr, "perfbench compare: refusing to compare runs from different hosts: %+v and %+v\n", ref.Host, r.Host)
				return 2
			}
		}
	}

	worse := false
	fmt.Fprintf(stdout, "%-10s %-22s %30s %30s %7s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, w := range workloadNames() {
		p, c := byWorkload(sides[0], w), byWorkload(sides[1], w)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		n := min(len(p), len(c))
		p, c = p[:n], c[:n]
		parentFirst := 0
		for i := range p {
			if p[i].Started.Before(c[i].Started) {
				parentFirst++
			}
		}
		alternated := 2*parentFirst-n <= 1 && n-2*parentFirst <= 1
		moreFailures := failures(c) > failures(p)
		for _, m := range metricsToJudge(bench, w, p[0]) {
			pv, cv := values(p, m.get), values(c, m.get)
			v := judge(pv, cv, m.higher, m.bound, alternated, moreFailures)
			worse = worse || v == "worse"
			pq, cq := quartiles(pv), quartiles(cv)
			fmt.Fprintf(stdout, "%-10s %-22s %30s %30s %3d/%-3d  %s\n", w, m.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(pv), pq[0], pq[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(cv), cq[0], cq[2]),
				wins(pv, cv, m.higher), n, v)
		}
		if !alternated {
			fmt.Fprintf(stdout, "%-10s runs did not alternate which side ran first (%d of %d pairs ran the parent first)\n", w, parentFirst, n)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// readRuns reads the untraced run reports in path (a file, or every file
// of a directory), ordered by start time.
func readRuns(path string) ([]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var runs []*result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			l := sc.Bytes()
			if !bytes.HasPrefix(l, []byte(`{"perfbench":`)) {
				continue
			}
			var rep struct{ Perfbench *result }
			if err := json.Unmarshal(l, &rep); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if !rep.Perfbench.Trace {
				runs = append(runs, rep.Perfbench)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Started.Before(runs[j].Started) })
	return runs, nil
}

func byWorkload(runs []*result, w string) []*result {
	var out []*result
	for _, r := range runs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

// judged is one metric the comparator judges on one workload.
type judged struct {
	name   string
	higher bool
	bound  float64
	get    func(*result) float64
}

// metricsToJudge lists BENCHMARK.json's end-to-end metrics, then every
// other metric of the workload's report (as in sample). A report metric
// takes the bound of the end-to-end metric it stands for, or else the
// largest bound in the file; it is better higher when its unit is a rate.
func metricsToJudge(bench benchmarkFile, workload string, sample *result) []judged {
	var out []judged
	seen := map[string]bool{}
	slotBound := map[string]float64{}
	maxBound := 0.0
	for _, m := range bench.EndToEnd {
		name := m.Name
		out = append(out, judged{name, m.Better == "higher", m.Bound, func(r *result) float64 { return gateMetrics(r)[name].Value }})
		seen[name] = true
		maxBound = max(maxBound, m.Bound)
		for _, e := range endToEnd {
			if e.name == name {
				slotBound[e.from[workload]] = m.Bound
			}
		}
	}
	var names []string
	for name := range sample.Metrics {
		if !seen[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		bound, ok := slotBound[name]
		if !ok {
			bound = maxBound
		}
		out = append(out, judged{name, strings.HasSuffix(sample.Metrics[name].Unit, "/s"), bound, func(r *result) float64 { return r.Metrics[name].Value }})
	}
	return out
}

func values(runs []*result, get func(*result) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = get(r)
	}
	return out
}

func failures(runs []*result) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}

func wins(p, c []float64, higher bool) int {
	w := 0
	for i := range p {
		if (higher && c[i] > p[i]) || (!higher && c[i] < p[i]) {
			w++
		}
	}
	return w
}

// judge applies the pair rule to one (metric, workload) pair of parent
// values p and change values c, paired by index. A gain needs at least ten
// alternating pairs, wins in nine tenths of them and a median gap wider
// than the parent's interquartile range, with no more failed operations. A
// loss is a median worse than the parent's by more than bound. When the
// parent's spread exceeds bound the pair is unresolved, unless every change
// run beats every parent run.
func judge(p, c []float64, higher bool, bound float64, alternated, moreFailures bool) string {
	if len(p) < 10 || !alternated {
		return "unresolved"
	}
	pm, cm := median(p), median(c)
	q := quartiles(p)
	gap := cm - pm
	if !higher {
		gap = -gap // positive: the change is better
	}
	switch {
	case gap < -bound*math.Abs(pm):
		return "worse"
	case gap > 0 && gap > q[2]-q[0] && 10*wins(p, c, higher) >= 9*len(p) && !moreFailures:
		return "improved"
	case q[2]-q[0] > bound*math.Abs(pm) && !allBetter(p, c, higher):
		return "unresolved"
	}
	return "unchanged"
}

func allBetter(p, c []float64, higher bool) bool {
	for _, x := range p {
		for _, y := range c {
			if (higher && y <= x) || (!higher && y >= x) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	ld := len(s)
	if ld == 0 {
		return out
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out
}
