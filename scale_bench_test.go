package netcache_test

// Big-machine scaling benchmarks: the wall clock of the sampled
// 12-application corpus at 16, 64 and 256 nodes, so a change that
// reintroduces an O(P) or O(P^2) per-reference cost shows up as a P=256
// regression even while the P=16 figures stay flat. The live-heap metric
// guards the config-sized (rather than MaxProcs-sized) allocation
// discipline the same way. Numbers compare only within one host; the
// end-to-end judgement of a change is `bash perfbench/run.sh` on its
// parent and on it, then `perfbench compare` (see perfbench/README.md).

import (
	"fmt"
	"runtime"
	"testing"

	"netcache"
)

// BenchmarkScaleCorpus runs every Table 4 application on the NetCache
// system under the validated sampling plan at the given node count.
func BenchmarkScaleCorpus(b *testing.B) {
	for _, procs := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, app := range netcache.Apps() {
					spec := netcache.RunSpec{
						App: app, System: netcache.SystemNetCache, Scale: 0.25,
						Config:   netcache.Config{Procs: procs},
						Sampling: benchSampling(),
					}
					if _, err := netcache.Run(spec); err != nil {
						b.Fatal(err)
					}
				}
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/1024, "live-heap-KB")
		})
	}
}
