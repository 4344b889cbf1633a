package netcache

import (
	"context"
	"testing"

	"netcache/internal/apps"
	"netcache/internal/sim"
)

// TestEngineCountsDeterministic checks the engine's counters (coroutine
// resumes, fired events) are a pure function of the spec, like the result
// itself: two runs of the same spec count the same.
// The sampled spec runs parallel functional rounds on four workers; a
// worker's Release is not an engine resume and is not counted. With -v the
// counts are logged.
func TestEngineCountsDeterministic(t *testing.T) {
	specs := []RunSpec{
		{App: "gauss", System: SystemNetCache, Scale: 0.06},
		{App: "sor", System: SystemNetCache, Scale: 0.06},
		{App: "radix", System: SystemNetCache, Scale: 0.06},
		{App: "cg", System: SystemNetCache, Scale: 0.06},
		{App: "sor", System: SystemDMONU, Scale: 0.25, Sampling: &Sampling{
			Mode: SampleStratified, IntervalRefs: 8192,
			WarmupRefs: 1024, Period: 16, Seed: 5, Workers: 4,
		}},
	}
	for _, spec := range specs {
		var counts [2]sim.Counts
		for i := range counts {
			app, err := apps.New(spec.App)
			if err != nil {
				t.Fatal(err)
			}
			_, m, err := runApp(context.Background(), spec, app)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = m.Eng.Counts()
		}
		if counts[0] != counts[1] {
			t.Errorf("%s on %s: counts differ between runs: %+v vs %+v", spec.App, spec.System, counts[0], counts[1])
		}
		if counts[0].Resumes == 0 || counts[0].Events == 0 {
			t.Errorf("%s on %s: counters never moved: %+v", spec.App, spec.System, counts[0])
		}
		t.Logf("%s on %s (sampled %v): %+v", spec.App, spec.System, spec.Sampling != nil, counts[0])
	}
}
