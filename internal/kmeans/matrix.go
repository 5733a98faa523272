package kmeans

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/xrand"
)

// Matrix is the indexed, dense-feature form of a []Vector, mirroring the
// regression-tree kernel's rtree.Matrix: the sparse uint64 EIP space is
// remapped to dense int32 feature IDs (ascending-EIP order) and the
// nonzero observations are stored as row-major CSR — row r's (feature,
// count) pairs in ascending feature-ID order. Per-row squared norms are
// cached at construction.
//
// Every floating-point accumulation in the clustering kernels walks this
// layout in a fixed, documented order (rows ascending; within a row,
// features ascending; dense centroid passes over the full feature range
// ascending), so results are bit-identical across runs, map-hash seeds
// and Parallelism settings — the property the map-backed kernel lacked.
// The retained reference oracle (reference_test.go) pins the semantics.
//
// A Matrix is immutable after construction and safe for concurrent use by
// any number of Cluster/BestRE calls.
type Matrix struct {
	eips []uint64 // feature ID -> EIP, ascending

	// Row-major CSR: row r's nonzero features are
	// rowFeat[rowStart[r]:rowStart[r+1]] (ascending feature ID) with
	// parallel counts rowCnt.
	rowStart []int32
	rowFeat  []int32
	rowCnt   []int32

	// norms caches each row's squared L2 norm, accumulated over the row's
	// features in ascending feature-ID order.
	norms []float64
}

// IndexVectors converts sparse map-backed vectors into the dense indexed
// form. Entries with a zero or negative count carry no samples and are
// dropped (equivalent to absent). Counts must fit in an int32.
func IndexVectors(vectors []Vector) *Matrix {
	m := &Matrix{rowStart: make([]int32, len(vectors)+1)}

	// Pass 1: the dense feature space, ascending so that dense-ID order
	// is ascending-EIP order — the same canonical ordering
	// rtree.IndexDataset uses.
	nnz := 0
	for _, v := range vectors {
		for e, c := range v {
			if c <= 0 {
				continue
			}
			if c > math.MaxInt32 {
				panic(fmt.Sprintf("kmeans: count %d for EIP %#x overflows the indexed representation", c, e))
			}
			m.eips = append(m.eips, e)
			nnz++
		}
	}
	slices.Sort(m.eips)
	m.eips = slices.Compact(m.eips)
	id := make(map[uint64]int32, len(m.eips))
	for f, e := range m.eips {
		id[e] = int32(f)
	}

	// Pass 2: row-major CSR, each row's (feature, count) pairs sorted by
	// feature ID via packed uint64 keys (feature IDs are unique per row).
	m.rowFeat = make([]int32, 0, nnz)
	m.rowCnt = make([]int32, 0, nnz)
	var keys []uint64
	for i, v := range vectors {
		keys = keys[:0]
		for e, c := range v {
			if c <= 0 {
				continue
			}
			keys = append(keys, uint64(id[e])<<32|uint64(uint32(c)))
		}
		slices.Sort(keys)
		for _, k := range keys {
			m.rowFeat = append(m.rowFeat, int32(k>>32))
			m.rowCnt = append(m.rowCnt, int32(uint32(k)))
		}
		m.rowStart[i+1] = int32(len(m.rowFeat))
	}

	m.initNorms()
	return m
}

// FromCSR wraps an existing row-major CSR triplet zero-copy — the bridge
// that lets the analysis pipeline share one indexed dataset between the
// regression-tree kernel (rtree.Matrix.RowCSR) and the clustering kernel
// instead of re-indexing the map vectors. eips is the dense-ID -> EIP
// mapping (ascending); rows must list features in ascending-ID order with
// positive counts. The caller must not mutate the slices afterwards.
func FromCSR(eips []uint64, rowStart, rowFeat, rowCnt []int32) *Matrix {
	m := &Matrix{eips: eips, rowStart: rowStart, rowFeat: rowFeat, rowCnt: rowCnt}
	m.initNorms()
	return m
}

// initNorms caches per-row squared norms (features ascending).
func (m *Matrix) initNorms() {
	m.norms = make([]float64, m.NumRows())
	for r := range m.norms {
		s := 0.0
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			c := float64(m.rowCnt[k])
			s += c * c
		}
		m.norms[r] = s
	}
}

// NumRows returns the number of vectors.
func (m *Matrix) NumRows() int { return len(m.rowStart) - 1 }

// NumFeatures returns the number of distinct EIPs (dense feature IDs).
func (m *Matrix) NumFeatures() int { return len(m.eips) }

// EIPs returns the dense-ID -> EIP mapping (ascending; do not mutate).
func (m *Matrix) EIPs() []uint64 { return m.eips }

// Norm2 returns row r's squared L2 norm.
func (m *Matrix) Norm2(r int) float64 { return m.norms[r] }

// Row returns row r's nonzero features (ascending feature ID) and their
// parallel counts. The returned slices are views; do not mutate.
func (m *Matrix) Row(r int) (feat, cnt []int32) {
	lo, hi := m.rowStart[r], m.rowStart[r+1]
	return m.rowFeat[lo:hi], m.rowCnt[lo:hi]
}

// centroids holds k dense centroids over f features in one feature-major
// slab: v[f*k+c] is cluster c's value for feature f, so a row's features
// gather every cluster's value from one contiguous run each. The centroid
// update accumulates sums in the slab and then replaces each with the
// exact quotient sum/n — the per-feature mean the reference oracle divides
// out on every distance — so distances multiply by stored means. Absent
// features contribute +0.0 to every sum, which float64 addition leaves
// bit-unchanged.
type centroids struct {
	k     int
	v     []float64 // feature-major: cluster c's feature f at v[f*k+c]
	n     []int
	norm2 []float64 // cached squared norm of each mean
	dots  []float64 // scratch: one row's dot product with each mean
	inv   []float64 // scratch: 1/n per cluster
}

// newCentroids lays k centroids over f features out in slab, zeroed,
// when its capacity holds k·f values, and in a new slab otherwise.
func newCentroids(k, f int, slab []float64) *centroids {
	if cap(slab) < k*f {
		slab = make([]float64, k*f)
	} else {
		slab = slab[:k*f]
		clear(slab)
	}
	return &centroids{
		k:     k,
		v:     slab,
		n:     make([]int, k),
		norm2: make([]float64, k),
		dots:  make([]float64, k),
		inv:   make([]float64, k),
	}
}

// setTo sets cluster c's mean to exactly row r (the seeding and
// empty-cluster re-seeding primitive). Cluster c's slab entries must all
// be zero, as they are in a fresh slab and for a cluster update left
// empty. The mean's squared norm is the row's cached norm: the same
// squares in the same ascending order, with absent features adding +0.0.
func (cs *centroids) setTo(c int, m *Matrix, r int) {
	feat, cnt := m.Row(r)
	for j, f := range feat {
		cs.v[int(f)*cs.k+c] = float64(cnt[j])
	}
	cs.n[c] = 1
	cs.norm2[c] = m.norms[r]
}

// sqDist assembles a squared Euclidean distance from its sparse parts,
// |v|² − 2·v·μ + |μ|², clamped at zero against cancellation.
func sqDist(rowNorm, dot, meanNorm float64) float64 {
	d := rowNorm - 2*dot + meanNorm
	if d < 0 {
		d = 0
	}
	return d
}

// dot returns the dot product of a row's (feat, cnt) pairs with cluster
// c's mean, walking the row's features in ascending-ID order.
func (cs *centroids) dot(c int, feat, cnt []int32) float64 {
	d := 0.0
	for j, f := range feat {
		d += float64(cnt[j]) * cs.v[int(f)*cs.k+c]
	}
	return d
}

// dist2 returns the squared distance between row r and cluster c's mean.
func (cs *centroids) dist2(c int, m *Matrix, r int) float64 {
	feat, cnt := m.Row(r)
	return sqDist(m.norms[r], cs.dot(c, feat, cnt), cs.norm2[c])
}

// rowDots fills cs.dots with row r's dot product against every cluster's
// mean in one sweep: clusters go in register blocks of four, then a
// scalar tail. Each cluster's sum still walks the row's features in
// ascending order, so every value is bit-equal to dot's.
func (cs *centroids) rowDots(m *Matrix, r int) {
	feat, cnt := m.Row(r)
	k, v := cs.k, cs.v
	c := 0
	for ; c+4 <= k; c += 4 {
		var d0, d1, d2, d3 float64
		for j, f := range feat {
			x := float64(cnt[j])
			i := int(f)*k + c
			mu := v[i : i+4 : i+4]
			d0 += x * mu[0]
			d1 += x * mu[1]
			d2 += x * mu[2]
			d3 += x * mu[3]
		}
		cs.dots[c], cs.dots[c+1], cs.dots[c+2], cs.dots[c+3] = d0, d1, d2, d3
	}
	for ; c < k; c++ {
		cs.dots[c] = cs.dot(c, feat, cnt)
	}
}

// update recomputes every cluster's sums from the assignment (rows
// ascending, features ascending within each row), then finishes all
// clusters in one feature-ascending pass: each |mean|² accumulates
// (s·(1/n))² exactly as the reference's finalize does, and each sum is
// replaced by the quotient s/n. Zero sums are skipped, since their
// quotient is +0.0 and their square adds +0.0. The norms land in fresh,
// not norm2, so the caller publishes them cluster by cluster.
func (cs *centroids) update(m *Matrix, assign []int, fresh []float64) {
	k := cs.k
	clear(cs.v)
	clear(cs.n)
	for i, c := range assign {
		cs.n[c]++
		feat, cnt := m.Row(i)
		for j, f := range feat {
			cs.v[int(f)*k+c] += float64(cnt[j])
		}
	}
	for c, n := range cs.n {
		fresh[c] = 0
		if n > 0 {
			cs.inv[c] = 1 / float64(n)
		}
	}
	for f := 0; f < len(cs.v); f += k {
		col := cs.v[f : f+k]
		for c, s := range col {
			if s == 0 {
				continue
			}
			mu := s * cs.inv[c]
			fresh[c] += mu * mu
			col[c] = s / float64(cs.n[c])
		}
	}
}

// seedRows returns the k-means++ seed rows for k clusters. Each pick
// depends only on earlier draws and earlier centers, so under one seed the
// picks for k are a prefix of the picks for any larger k. A center's mean
// is its row (n = 1), so distances to it dot each row with a dense scatter
// of the center row, and its |mean|² is the row's cached norm.
func (m *Matrix) seedRows(k int, seed uint64) []int {
	n := m.NumRows()
	rng := xrand.New(seed ^ 0x4b3a)
	center := make([]float64, m.NumFeatures())
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	rows := make([]int, 0, k)
	pick := rng.Intn(n)
	for {
		rows = append(rows, pick)
		if len(rows) == k {
			return rows
		}
		feat, cnt := m.Row(pick)
		for j, f := range feat {
			center[f] = float64(cnt[j])
		}
		for i := range minD {
			rf, rc := m.Row(i)
			dot := 0.0
			for j, f := range rf {
				dot += float64(rc[j]) * center[f]
			}
			if d := sqDist(m.norms[i], dot, m.norms[pick]); d < minD[i] {
				minD[i] = d
			}
		}
		for _, f := range feat {
			center[f] = 0
		}

		total := 0.0
		for _, d := range minD {
			total += d
		}
		if total <= 0 {
			pick = rng.Intn(n)
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick = n - 1
		for i, d := range minD {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
	}
}

// lloyd runs Lloyd iterations from the given seed rows, one per cluster,
// keeping the centroids in slab when it is large enough (see newCentroids).
func (m *Matrix) lloyd(centers []int, maxIter int, slab []float64) *Result {
	if maxIter < 1 {
		maxIter = 50
	}
	n, k := m.NumRows(), len(centers)
	cs := newCentroids(k, m.NumFeatures(), slab)
	for c, r := range centers {
		cs.setTo(c, m, r)
	}
	fresh := make([]float64, k)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{K: k, Assign: assign}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i := 0; i < n; i++ {
			cs.rowDots(m, i)
			best, bestD := 0, math.Inf(1)
			for c, dot := range cs.dots {
				if d := sqDist(m.norms[i], dot, cs.norm2[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		cs.update(m, assign, fresh)
		for c := 0; c < k; c++ {
			if cs.n[c] == 0 {
				// Re-seed an empty cluster on the farthest point. Like the
				// original kernel, the search sees fresh means but norm2
				// caches that are only refreshed for clusters below c —
				// a quirk, but part of the pinned semantics.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					if d := cs.dist2(assign[i], m, i); d > farD {
						far, farD = i, d
					}
				}
				cs.setTo(c, m, far)
				assign[far] = c
				continue
			}
			cs.norm2[c] = fresh[c]
		}
	}
	res.Sizes = make([]int, k)
	for _, a := range assign {
		res.Sizes[a]++
	}
	return res
}

// Cluster partitions the matrix's rows into k clusters with k-means++
// seeding and Lloyd iterations, deterministic under the explicit seed. It
// returns an error if k is not in [1, NumRows]. The random draw sequence,
// tie-breaks and floating-point accumulation orders reproduce the
// reference oracle (reference_test.go) bit-for-bit.
func (m *Matrix) Cluster(k int, seed uint64, maxIter int) (*Result, error) {
	if n := m.NumRows(); k < 1 || k > n {
		return nil, fmt.Errorf("kmeans: k=%d outside [1, %d]", k, n)
	}
	return m.lloyd(m.seedRows(k, seed), maxIter, nil), nil
}

// BestRE sweeps k over a graded grid up to maxK and returns the minimum
// PredictRE and its k (the paper picks each algorithm's best k <= 50
// independently, §4.6). The grid is dense for small k — where the curve
// moves — and sparse beyond 10, bounding the sweep's cost. Seeding runs
// once, for the largest k; every smaller k starts Lloyd from a prefix of
// those seeds, which is exactly what Cluster would seed it with, and
// every k reuses one centroid slab. It
// returns an error for an empty matrix or maxK < 1.
func (m *Matrix) BestRE(ys []float64, maxK int, seed uint64) (float64, int, error) {
	n := m.NumRows()
	if n == 0 {
		return 0, 0, errors.New("kmeans: BestRE on an empty matrix")
	}
	if maxK < 1 {
		return 0, 0, fmt.Errorf("kmeans: BestRE maxK=%d, want >= 1", maxK)
	}
	maxK = min(maxK, n)
	grid := []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 26, 32, 40, 50}
	for grid[len(grid)-1] > maxK {
		grid = grid[:len(grid)-1]
	}
	seeds := m.seedRows(grid[len(grid)-1], seed)
	slab := make([]float64, len(seeds)*m.NumFeatures())
	bestRE, bestK := math.Inf(1), 1
	for _, k := range grid {
		if re := PredictRE(m.lloyd(seeds[:k], 40, slab), ys); re < bestRE {
			bestRE, bestK = re, k
		}
	}
	return bestRE, bestK, nil
}
