package netcache_test

// Sampled-vs-full wall-clock benchmarks keep the sampled-mode speedup
// visible: a change that quietly drags sampled runs back toward full-run
// cost shows up here even while every accuracy test still passes. Numbers
// compare only within one host; the end-to-end judgement of a change is
// `bash perfbench/run.sh` on its parent and on it, then `perfbench
// compare` (see perfbench/README.md).

import (
	"testing"

	"netcache"
)

// benchSampling is the validated accuracy-harness configuration (see
// TestSampledAccuracyFull and EXPERIMENTS.md).
func benchSampling() *netcache.Sampling {
	return &netcache.Sampling{
		Mode:         netcache.SampleStratified,
		IntervalRefs: 2048, WarmupRefs: 4096, Period: 32, Intervals: 32, Seed: 1,
	}
}

func benchSpec() netcache.RunSpec {
	return netcache.RunSpec{App: "gauss", System: netcache.SystemNetCache, Scale: 0.5}
}

func BenchmarkRunFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := netcache.Run(benchSpec()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSampled(b *testing.B) {
	spec := benchSpec()
	spec.Sampling = benchSampling()
	for i := 0; i < b.N; i++ {
		if _, err := netcache.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}
