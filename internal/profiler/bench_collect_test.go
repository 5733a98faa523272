package profiler_test

// The cold-collection benchmark pair quantifies the dense interned hot
// loop: BenchmarkCollectScalar runs the retained per-event reference path
// (CollectOptions.Scalar — one virtual Step per block, map-based BBV
// accumulation), BenchmarkCollectBatched the production path (interned
// block ids, batched retirement, slice accumulators, skip-aware
// observation). Both produce bit-identical EncodeResult bytes (see
// oracle_test.go); only time and allocations differ. The results are
// archived as BENCH_collect.json via `make benchjson-collect`.

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/profiler"
	_ "repro/internal/workload/all" // register every workload
)

// collectFamilies samples one workload per paper family: a SPEC analog,
// the OLTP database, the J2EE appserver, and a DSS query.
var collectFamilies = []string{"spec.gzip", "odb-c", "sjas", "odb-h.q13"}

// collectBenchIntervals matches the default Table 2 run length and the
// profstore benchmark, so BENCH_collect.json and the profile-store tier
// benchmarks describe the same work.
const collectBenchIntervals = 320

func benchCollect(b *testing.B, scalar bool) {
	for _, name := range collectFamilies {
		b.Run(name, func(b *testing.B) {
			opt := profiler.CollectOptions{
				Machine:   cpu.Itanium2(),
				Seed:      1,
				Intervals: collectBenchIntervals,
				Scalar:    scalar,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := profiler.CollectByName(name, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectScalar is the pre-optimization reference: the scalar
// per-event loop the oracle tests pin the batched path against.
func BenchmarkCollectScalar(b *testing.B) { benchCollect(b, true) }

// BenchmarkCollectBatched is the production cold-collection path.
func BenchmarkCollectBatched(b *testing.B) { benchCollect(b, false) }
