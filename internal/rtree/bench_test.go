package rtree

import (
	"testing"

	"repro/internal/xrand"
)

// benchDataset mimics the paper's workload shape: ~1000 intervals, a few
// hundred distinct EIPs, tens of nonzero EIPs per interval.
func benchDataset(n, feats, perRow int) Dataset {
	rng := xrand.New(42)
	data := make(Dataset, n)
	for i := range data {
		counts := map[uint64]int{}
		for s := 0; s < perRow*8; s++ {
			counts[uint64(rng.Intn(feats))]++
		}
		y := 1.0 + 0.02*float64(counts[3]) - 0.01*float64(counts[11])
		data[i] = Point{Counts: counts, Y: y + rng.Norm(0, 0.05)}
	}
	return data
}

func BenchmarkRTreeBuild(b *testing.B) {
	data := benchDataset(1000, 400, 40)
	opt := Options{MaxLeaves: 40, MinLeaf: 2}

	b.Run("csr", func(b *testing.B) {
		m := IndexDataset(data) // once per tree in production; amortized here
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Build(opt)
		}
	})
	b.Run("csr-with-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Build(data, opt)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceBuild(data, opt)
		}
	})
}

func BenchmarkRTreeCrossValidate(b *testing.B) {
	data := benchDataset(600, 300, 30)
	opt := Options{MaxLeaves: 30, MinLeaf: 2}

	b.Run("csr", func(b *testing.B) {
		m := IndexDataset(data)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.CrossValidate(opt, 10, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The long-tail shape of odb-c: 311 intervals, ~15k EIPs, about half
	// of them sampled in a single interval. The reference kernel is left
	// out: it would take minutes per iteration.
	b.Run("csr-longtail", func(b *testing.B) {
		m := IndexDataset(longTailDataset(xrand.New(42), 311, 15000, 1200, 675))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.CrossValidate(DefaultOptions(), 10, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceCrossValidate(data, opt, 10, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}
