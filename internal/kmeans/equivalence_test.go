package kmeans

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// This file locks the dense-vector kernel to the reference kernel: on
// randomized sparse vector sets the two must produce identical
// clusterings (same assignment, sizes, Lloyd iteration count) and
// bit-identical PredictRE values. Any divergence in feature ordering,
// random draw sequence, or floating-point accumulation order shows up
// here as an exact-inequality failure.

// equivVectors builds adversarial sparse data: a small feature alphabet
// with overlapping blobs (so distances tie or nearly tie), duplicated
// rows (so empty-cluster re-seeding triggers), and CPIs loosely coupled
// to the blobs.
func equivVectors(rng *xrand.Rand, n, feats, maxCount int) ([]Vector, []float64) {
	vectors := make([]Vector, n)
	ys := make([]float64, n)
	for i := range vectors {
		v := Vector{}
		blob := rng.Intn(3)
		for f := 0; f < feats; f++ {
			if rng.Bool(0.4) {
				v[uint64(blob*feats+f)] = rng.Range(1, maxCount)
			}
		}
		if rng.Bool(0.2) && i > 0 {
			// Exact duplicate of an earlier row: distance ties are certain.
			v = Vector{}
			for f, c := range vectors[i-1] {
				v[f] = c
			}
		}
		vectors[i] = v
		ys[i] = float64(blob) + rng.Norm(0, 0.1)
	}
	return vectors, ys
}

func sameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.K != got.K || want.Iterations != got.Iterations {
		t.Fatalf("%s: K/Iterations differ: reference %d/%d, dense %d/%d",
			label, want.K, want.Iterations, got.K, got.Iterations)
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: assign[%d] = %d (reference) vs %d (dense)", label, i, want.Assign[i], got.Assign[i])
		}
	}
	for c := range want.Sizes {
		if want.Sizes[c] != got.Sizes[c] {
			t.Fatalf("%s: sizes[%d] = %d vs %d", label, c, want.Sizes[c], got.Sizes[c])
		}
	}
}

// TestEquivalenceCluster: identical clusterings and bit-identical RE on
// randomized vector sets across k and seed settings.
func TestEquivalenceCluster(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 20 + rng.Intn(120)
		feats := 2 + rng.Intn(12)
		maxCount := 1 + rng.Intn(40)
		vectors, ys := equivVectors(rng, n, feats, maxCount)
		k := 1 + rng.Intn(min(n, 12))

		ref, err1 := referenceCluster(vectors, k, seed, 40)
		dense, err2 := IndexVectors(vectors).Cluster(k, seed, 40)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sameResult(t, ref, dense, "cluster")

		refRE := PredictRE(ref, ys)
		denseRE := PredictRE(dense, ys)
		if refRE != denseRE {
			t.Fatalf("seed %d: PredictRE %v (reference) vs %v (dense)", seed, refRE, denseRE)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceBestRE: the full §4.6 sweep agrees bit-for-bit.
func TestEquivalenceBestRE(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		vectors, ys := equivVectors(rng, 30+rng.Intn(80), 2+rng.Intn(8), 1+rng.Intn(25))
		maxK := 1 + rng.Intn(20)

		refRE, refK, err1 := referenceBestRE(vectors, ys, maxK, seed)
		dRE, dK, err2 := IndexVectors(vectors).BestRE(ys, maxK, seed)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if refRE != dRE || refK != dK {
			t.Fatalf("seed %d: BestRE (%v, %d) reference vs (%v, %d) dense", seed, refRE, refK, dRE, dK)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// wideVectors builds long-tail data shaped like the big-footprint
// workloads: thousands of features, hundreds of nonzeros per row drawn
// partly from one of a few hot regions and partly from the whole feature
// range, skewed counts, and copies of earlier rows so that empty-cluster
// re-seeding and the all-centers-chosen seeding fallback both fire.
func wideVectors(rng *xrand.Rand, n, feats, perRow int) ([]Vector, []float64) {
	const regions = 6
	vectors := make([]Vector, n)
	ys := make([]float64, n)
	for i := range vectors {
		if i > 0 && rng.Bool(0.2) {
			src := rng.Intn(i)
			v := Vector{}
			for f, c := range vectors[src] {
				v[f] = c
			}
			vectors[i], ys[i] = v, ys[src]+rng.Norm(0, 0.05)
			continue
		}
		region := rng.Intn(regions)
		v := Vector{}
		for s := 0; s < perRow; s++ {
			f := rng.Intn(feats)
			if rng.Bool(0.7) {
				f = region*feats/regions + rng.Intn(feats/(4*regions))
			}
			v[uint64(f)] += 1 + int(rng.Exp(3))
		}
		vectors[i], ys[i] = v, float64(region)+rng.Norm(0, 0.3)
	}
	return vectors, ys
}

// TestEquivalenceWide locks the blocked, feature-major kernel against the
// reference on wide long-tail data: Cluster at every k in 1..50 (every
// block tail k ≡ 0..3 mod 4), and BestRE against the minimum over
// independent reference Cluster calls, which locks the shared seeding.
func TestEquivalenceWide(t *testing.T) {
	// Seed 3 yields fewer distinct rows than the largest k, so Lloyd
	// re-seeds empty clusters there.
	const seed = 3
	vectors, ys := wideVectors(xrand.New(seed), 64, 4000, 300)
	m := IndexVectors(vectors)
	if m.NumFeatures() < 2000 || len(m.rowFeat) < 200*m.NumRows() {
		t.Fatalf("%d features, %d nonzeros: not wide enough", m.NumFeatures(), len(m.rowFeat))
	}
	refRE := make(map[int]float64)
	for k := 1; k <= 50; k++ {
		ref, err1 := referenceCluster(vectors, k, seed, 40)
		dense, err2 := m.Cluster(k, seed, 40)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sameResult(t, ref, dense, fmt.Sprintf("k=%d", k))
		refRE[k] = PredictRE(ref, ys)
		if got := PredictRE(dense, ys); got != refRE[k] {
			t.Fatalf("k=%d: PredictRE %v (reference) vs %v (dense)", k, refRE[k], got)
		}
	}
	grid := []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 26, 32, 40, 50}
	for _, maxK := range []int{1, 7, 9, 50} {
		wantRE, wantK := math.Inf(1), 1
		for _, k := range grid {
			if k <= maxK && refRE[k] < wantRE {
				wantRE, wantK = refRE[k], k
			}
		}
		re, k, err := m.BestRE(ys, maxK, seed)
		if err != nil {
			t.Fatal(err)
		}
		if re != wantRE || k != wantK {
			t.Fatalf("maxK %d: BestRE (%v, %d), reference minimum (%v, %d)", maxK, re, k, wantRE, wantK)
		}
	}
}

// TestSeedRowsPrefix: under one seed, the k-means++ picks for k are the
// first k picks for any larger k — the property BestRE's single seeding
// relies on.
func TestSeedRowsPrefix(t *testing.T) {
	vectors, _ := wideVectors(xrand.New(3), 64, 4000, 300)
	m := IndexVectors(vectors)
	for _, seed := range []uint64{1, 2, 3} {
		all := m.seedRows(64, seed)
		for k := 1; k < len(all); k++ {
			if got := m.seedRows(k, seed); !slices.Equal(got, all[:k]) {
				t.Fatalf("seed %d: seedRows(%d) = %v, want prefix %v", seed, k, got, all[:k])
			}
		}
	}
}

// TestMatrixRoundTrip: the indexed form preserves rows, feature order and
// norms.
func TestMatrixRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	vectors, _ := equivVectors(rng, 25, 6, 9)
	m := IndexVectors(vectors)
	if m.NumRows() != len(vectors) {
		t.Fatalf("NumRows = %d, want %d", m.NumRows(), len(vectors))
	}
	eips := m.EIPs()
	for i := 1; i < len(eips); i++ {
		if eips[i-1] >= eips[i] {
			t.Fatalf("EIPs not strictly ascending at %d: %v", i, eips[i-1:i+1])
		}
	}
	for r := range vectors {
		feat, cnt := m.Row(r)
		if len(feat) != len(vectors[r]) {
			t.Fatalf("row %d: %d features, want %d", r, len(feat), len(vectors[r]))
		}
		norm := 0.0
		for j, f := range feat {
			if j > 0 && feat[j-1] >= f {
				t.Fatalf("row %d features not ascending", r)
			}
			if got, want := int(cnt[j]), vectors[r][eips[f]]; got != want {
				t.Fatalf("row %d feature %d: count %d, want %d", r, f, got, want)
			}
			norm += float64(cnt[j]) * float64(cnt[j])
		}
		if norm != m.Norm2(r) {
			t.Fatalf("row %d: Norm2 %v, recomputed %v", r, m.Norm2(r), norm)
		}
	}
}

// TestIndexVectorsDropsNonPositive: zero/negative counts are equivalent
// to absent entries.
func TestIndexVectorsDropsNonPositive(t *testing.T) {
	m := IndexVectors([]Vector{{1: 3, 2: 0, 5: -4}, {1: 1}})
	if m.NumFeatures() != 1 {
		t.Fatalf("NumFeatures = %d, want 1 (only EIP 1 carries samples)", m.NumFeatures())
	}
	feat, cnt := m.Row(0)
	if len(feat) != 1 || cnt[0] != 3 {
		t.Fatalf("row 0 = (%v, %v)", feat, cnt)
	}
}
