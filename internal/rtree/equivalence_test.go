package rtree

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// This file locks the columnar kernel to the reference kernel: on
// randomized sparse datasets the two must produce bit-identical trees
// (same split sequence, same thresholds, same gain bits) and bit-identical
// cross-validation curves, at every Parallelism setting. Any divergence in
// feature ordering, tie-breaking, or floating-point accumulation order
// shows up here as an exact-inequality failure.

// equivDataset builds adversarial sparse data: a small count alphabet so
// runs of equal counts are long (stressing the stable (count, row) order),
// duplicated responses so gains tie exactly, and a planted signal so trees
// actually grow deep.
func equivDataset(rng *xrand.Rand, n, feats, maxCount int) Dataset {
	data := make(Dataset, n)
	for i := range data {
		counts := map[uint64]int{}
		for f := 0; f < feats; f++ {
			if rng.Bool(0.5) {
				counts[uint64(f*7+3)] = rng.Range(1, maxCount)
			}
		}
		y := float64(rng.Range(0, 8)) * 0.25 // coarse: exact ties are common
		if counts[3] > maxCount/2 {
			y += 2
		}
		data[i] = Point{Counts: counts, Y: y + rng.Norm(0, 0.1)}
	}
	return data
}

func sameSplits(t *testing.T, want, got []Split, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d splits vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: split %d differs: reference %+v, columnar %+v", label, i, want[i], got[i])
		}
	}
}

func sameCV(t *testing.T, want, got CVResult, label string) {
	t.Helper()
	if want.KOpt != got.KOpt || want.REOpt != got.REOpt || want.KAsym != got.KAsym {
		t.Fatalf("%s: CV summary differs: reference %+v, columnar %+v", label, want, got)
	}
	for k := range want.RE {
		if want.RE[k] != got.RE[k] {
			t.Fatalf("%s: RE[%d] = %v vs %v", label, k, got.RE[k], want.RE[k])
		}
	}
}

// TestEquivalenceBuild: identical split sequences (including exact gain
// bits) on randomized datasets across growth-parameter settings.
func TestEquivalenceBuild(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 40 + rng.Intn(160)
		feats := 2 + rng.Intn(20)
		maxCount := 2 + rng.Intn(30)
		data := equivDataset(rng, n, feats, maxCount)
		opt := Options{MaxLeaves: 2 + rng.Intn(30), MinLeaf: 1 + rng.Intn(4)}

		ref := referenceBuild(data, opt)
		csr := Build(data, opt)
		sameSplits(t, ref.Splits(), csr.Splits(), "build")

		// Every point must land in the same chamber at every k.
		for k := 1; k <= opt.MaxLeaves; k++ {
			for i := range data {
				if ref.PredictK(data[i].Counts, k) != csr.PredictK(data[i].Counts, k) {
					t.Fatalf("seed %d: PredictK(%d, k=%d) differs", seed, i, k)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceCrossValidate: bit-identical RE_k curves between the
// kernels, serial and parallel.
func TestEquivalenceCrossValidate(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		data := equivDataset(rng, 60+rng.Intn(120), 2+rng.Intn(15), 2+rng.Intn(20))
		opt := Options{MaxLeaves: 2 + rng.Intn(25), MinLeaf: 2}

		ref, err1 := referenceCrossValidate(data, opt, 5, seed)
		got, err2 := CrossValidate(data, opt, 5, seed)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sameCV(t, ref, got, fmt.Sprintf("seed %d", seed))

		popt := opt
		popt.Parallelism = 4
		par, err := CrossValidate(data, popt, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameCV(t, ref, par, fmt.Sprintf("seed %d parallel", seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceParallelBuild drives the feature-parallel split search
// (>= parallelFeatureMin present features) and asserts it matches both the
// serial columnar path and the reference.
func TestEquivalenceParallelBuild(t *testing.T) {
	rng := xrand.New(99)
	// Wide feature space so nodes really cross parallelFeatureMin.
	data := make(Dataset, 250)
	for i := range data {
		counts := map[uint64]int{}
		for s := 0; s < 60; s++ {
			counts[uint64(rng.Intn(400))]++
		}
		y := 1.0
		if counts[7] > 0 {
			y = 3.0
		}
		data[i] = Point{Counts: counts, Y: y + rng.Norm(0, 0.3)}
	}
	opt := Options{MaxLeaves: 30, MinLeaf: 2}
	ref := referenceBuild(data, opt)
	serial := Build(data, opt)
	popt := opt
	popt.Parallelism = 8
	parallel := Build(data, popt)

	sameSplits(t, ref.Splits(), serial.Splits(), "serial")
	sameSplits(t, ref.Splits(), parallel.Splits(), "parallel")
}

// longTailDataset mimics the column shape of real EIPV profiles: most
// features are sampled in 0–3 intervals (half of the sparse ones in
// exactly one), some columns are exact duplicates of earlier ones, and a
// few dense columns carry the signal. Most sparse columns fall below
// MinLeaf entries, so it stresses the kernel's live-column pruning at
// every MinLeaf.
func longTailDataset(rng *xrand.Rand, n, sparse, dense, dups int) Dataset {
	type entry struct{ row, cnt int }
	var cols [][]entry
	for f := 0; f < dense; f++ {
		var col []entry
		p := 0.05 + 0.55*rng.Float64()
		for r := 0; r < n; r++ {
			if rng.Bool(p) {
				col = append(col, entry{r, rng.Range(1, 6)})
			}
		}
		cols = append(cols, col)
	}
	for f := 0; f < sparse; f++ {
		var col []entry
		for k := [8]int{0, 1, 1, 1, 1, 2, 2, 3}[rng.Intn(8)]; k > 0; k-- {
			col = append(col, entry{rng.Intn(n), rng.Range(1, 3)})
		}
		cols = append(cols, col)
	}
	for f := 0; f < dups; f++ {
		cols = append(cols, cols[rng.Intn(len(cols))])
	}
	// Shuffle so duplicates and dense columns interleave in EIP order.
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })

	data := make(Dataset, n)
	for r := range data {
		data[r] = Point{Counts: map[uint64]int{}}
	}
	for f, col := range cols {
		for _, e := range col {
			data[e.row].Counts[uint64(f*5+1)] = e.cnt
		}
	}
	for r := range data {
		y := float64(rng.Range(0, 4)) * 0.5 // coarse: exact ties are common
		if data[r].Counts[1] > 2 {
			y += 1.5
		}
		data[r].Y = y + rng.Norm(0, 0.05)
	}
	return data
}

// TestEquivalenceLongTail locks build and CV against the reference on
// long-tail data at MinLeaf 1–5, serial and parallel, with enough live
// columns at the root that the parallel split search really runs.
func TestEquivalenceLongTail(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rng := xrand.New(seed)
		data := longTailDataset(rng, 120, 900, 160, 100)
		m := IndexDataset(data)
		for minLeaf := 1; minLeaf <= 5; minLeaf++ {
			live := 0
			for f := 0; f < m.NumFeatures(); f++ {
				if int(m.colStart[f+1]-m.colStart[f]) >= minLeaf {
					live++
				}
			}
			if live < parallelFeatureMin || (minLeaf > 1 && live == m.NumFeatures()) {
				t.Fatalf("seed %d MinLeaf %d: %d of %d columns live; want pruning and parallel nodes",
					seed, minLeaf, live, m.NumFeatures())
			}

			opt := Options{MaxLeaves: 30, MinLeaf: minLeaf}
			ref := referenceBuild(data, opt)
			refCV, err := referenceCrossValidate(data, opt, 5, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				opt.Parallelism = par
				label := fmt.Sprintf("seed %d MinLeaf %d Parallelism %d", seed, minLeaf, par)
				sameSplits(t, ref.Splits(), m.Build(opt).Splits(), label)
				got, err := m.CrossValidate(opt, 5, seed)
				if err != nil {
					t.Fatal(err)
				}
				sameCV(t, refCV, got, label)
			}
		}
	}
}

// TestEquivalenceMatrixReuse: fold trees built from one shared Matrix must
// match trees built from per-fold map datasets (the reference protocol),
// even though the Matrix's feature universe includes test-only EIPs.
func TestEquivalenceMatrixReuse(t *testing.T) {
	rng := xrand.New(1234)
	data := equivDataset(rng, 150, 12, 10)
	m := IndexDataset(data)

	// Same matrix, many builds: pooled scratch must not leak state.
	first := m.Build(DefaultOptions()).Splits()
	for i := 0; i < 5; i++ {
		sameSplits(t, first, m.Build(DefaultOptions()).Splits(), "rebuild")
	}

	// Subset build vs reference build over the equivalent sub-dataset.
	var rows []int32
	var sub Dataset
	for i := 0; i < len(data); i += 2 {
		rows = append(rows, int32(i))
		sub = append(sub, data[i])
	}
	ref := referenceBuild(sub, DefaultOptions())
	got := m.build(rows, DefaultOptions())
	sameSplits(t, ref.Splits(), got.Splits(), "subset")
}

// TestIndexDatasetShape sanity-checks the boundary conversion: ascending
// EIP remap, zero-count entries dropped, row counts recoverable.
func TestIndexDatasetShape(t *testing.T) {
	data := Dataset{
		{Counts: map[uint64]int{9: 2, 4: 1, 100: 0}, Y: 1},
		{Counts: map[uint64]int{4: 7}, Y: 2},
		{Counts: map[uint64]int{}, Y: 3},
	}
	m := IndexDataset(data)
	if m.NumRows() != 3 || m.NumFeatures() != 2 {
		t.Fatalf("rows=%d features=%d, want 3 and 2 (zero-count EIP dropped)", m.NumRows(), m.NumFeatures())
	}
	if m.EIPs()[0] != 4 || m.EIPs()[1] != 9 {
		t.Fatalf("EIP remap not ascending: %v", m.EIPs())
	}
	cases := []struct{ r, f, want int32 }{
		{0, 0, 1}, {0, 1, 2}, {1, 0, 7}, {1, 1, 0}, {2, 0, 0}, {2, 1, 0},
	}
	for _, c := range cases {
		if got := m.rowCount(c.r, c.f); got != c.want {
			t.Fatalf("rowCount(%d, %d) = %d, want %d", c.r, c.f, got, c.want)
		}
	}
	if m.Y(2) != 3 {
		t.Fatalf("Y(2) = %v", m.Y(2))
	}
}
