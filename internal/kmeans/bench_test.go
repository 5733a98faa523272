package kmeans

import (
	"testing"

	"repro/internal/xrand"
)

// benchVectors mimics the paper's workload shape: a few hundred intervals,
// a few hundred distinct EIPs, tens of nonzero EIPs per interval.
func benchVectors(n, feats, perRow int) ([]Vector, []float64) {
	rng := xrand.New(42)
	vectors := make([]Vector, n)
	ys := make([]float64, n)
	for i := range vectors {
		v := Vector{}
		for s := 0; s < perRow*8; s++ {
			v[uint64(rng.Intn(feats))]++
		}
		vectors[i] = v
		ys[i] = 1.0 + 0.02*float64(v[3]) - 0.01*float64(v[11]) + rng.Norm(0, 0.05)
	}
	return vectors, ys
}

func BenchmarkKMeansCluster(b *testing.B) {
	vectors, _ := benchVectors(320, 400, 40)
	const k, seed, maxIter = 12, 1, 40

	b.Run("dense", func(b *testing.B) {
		m := IndexVectors(vectors) // once per dataset in production; amortized here
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Cluster(k, seed, maxIter); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-with-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Cluster(vectors, k, seed, maxIter); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceCluster(vectors, k, seed, maxIter); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKMeansBestRE(b *testing.B) {
	vectors, ys := benchVectors(200, 300, 30)

	b.Run("dense", func(b *testing.B) {
		m := IndexVectors(vectors)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := m.BestRE(ys, 50, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := referenceBestRE(vectors, ys, 50, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	// sjas's shape: 311 rows, ~26k features, ~800 nonzeros per row, where
	// the §4.6 sweep costs the most.
	b.Run("longtail", func(b *testing.B) {
		vectors, ys := wideVectors(xrand.New(42), 311, 27000, 1000)
		m := IndexVectors(vectors)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := m.BestRE(ys, 50, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
