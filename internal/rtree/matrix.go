package rtree

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// Matrix is the indexed, columnar form of a Dataset: the sparse uint64 EIP
// space is remapped to dense int32 feature IDs (ascending-EIP order, so
// feature-ID order IS the lowest-EIP tie-break order), and the nonzero
// observations are stored twice —
//
//   - row-major CSR (per-row feature lists, ascending feature ID) for
//     O(log nnz(row)) count lookups during prediction and split routing;
//   - column-major CSR (per-feature packed (count, row) entries, presorted
//     by (count, row)) as the presorted feature index that Build's split
//     search scans with prefix-sum aggregates, never re-sorting.
//
// A Matrix is immutable after IndexDataset and safe for concurrent use by
// any number of Build/CrossValidate calls (cross-validation folds share
// one Matrix and select row subsets).
type Matrix struct {
	eips []uint64  // feature ID -> EIP, ascending
	ys   []float64 // per-row response (CPI)

	// Row-major CSR: row r's nonzero features are
	// rowFeat[rowStart[r]:rowStart[r+1]] (ascending feature ID) with
	// parallel counts rowCnt.
	rowStart []int32
	rowFeat  []int32
	rowCnt   []int32

	// Column-major CSR: feature f's nonzero observations are
	// colEnt[colStart[f]:colStart[f+1]], each packed as count<<32 | row
	// and sorted ascending, i.e. by (count, row). Any subsequence of a
	// column (a node's members) is therefore already in threshold-scan
	// order.
	colStart []int32
	colEnt   []uint64
}

// NumRows returns the number of observations.
func (m *Matrix) NumRows() int { return len(m.ys) }

// NumFeatures returns the number of distinct EIPs (dense feature IDs).
func (m *Matrix) NumFeatures() int { return len(m.eips) }

// EIPs returns the dense-ID -> EIP mapping (ascending; do not mutate).
func (m *Matrix) EIPs() []uint64 { return m.eips }

// Y returns row r's response.
func (m *Matrix) Y(r int) float64 { return m.ys[r] }

// RowCSR exposes the row-major CSR triplet (rows' features ascending by
// dense ID, positive counts only) so other dense kernels — notably
// kmeans.FromCSR — can share this index zero-copy instead of re-indexing
// the map dataset. Callers must not mutate the returned slices.
func (m *Matrix) RowCSR() (rowStart, rowFeat, rowCnt []int32) {
	return m.rowStart, m.rowFeat, m.rowCnt
}

// YVariance returns the population variance of the responses (the paper's
// E, the denominator of the relative error).
func (m *Matrix) YVariance() float64 { return stats.Var(m.ys) }

// rowCount returns row r's count for feature f (0 when absent) by binary
// search over the row's ascending feature list.
func (m *Matrix) rowCount(r, f int32) int32 {
	lo, hi := m.rowStart[r], m.rowStart[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if m.rowFeat[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.rowStart[r+1] && m.rowFeat[lo] == f {
		return m.rowCnt[lo]
	}
	return 0
}

// IndexDataset converts a map-based Dataset into its columnar indexed
// form. This is the single boundary where sparse EIP histograms meet the
// regression-tree kernel; everything past it is dense int32 IDs.
//
// Entries with a zero or negative count are dropped: they carry no samples
// and are equivalent to absent ones for splitting and prediction. Counts
// must fit in an int32 (they are per-interval sample counts, bounded by
// the interval length).
func IndexDataset(d Dataset) *Matrix {
	m := &Matrix{ys: make([]float64, len(d))}

	// Pass 1: the dense feature space, ascending so that dense-ID order
	// preserves the lowest-EIP tie-break.
	nnz := 0
	for i := range d {
		m.ys[i] = d[i].Y
		for e, c := range d[i].Counts {
			if c <= 0 {
				continue
			}
			if c > math.MaxInt32 {
				panic(fmt.Sprintf("rtree: count %d for EIP %#x overflows the indexed representation", c, e))
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
	// feature ID. Pairs are packed into uint64 keys so one slices.Sort
	// orders them without allocations.
	m.rowStart = make([]int32, len(d)+1)
	m.rowFeat = make([]int32, 0, nnz)
	m.rowCnt = make([]int32, 0, nnz)
	var keys []uint64
	for i := range d {
		keys = keys[:0]
		for e, c := range d[i].Counts {
			if c <= 0 {
				continue
			}
			keys = append(keys, uint64(id[e])<<32|uint64(uint32(c)))
		}
		slices.Sort(keys) // feature IDs are unique per row
		for _, k := range keys {
			m.rowFeat = append(m.rowFeat, int32(k>>32))
			m.rowCnt = append(m.rowCnt, int32(uint32(k)))
		}
		m.rowStart[i+1] = int32(len(m.rowFeat))
	}

	m.buildColumns()
	return m
}

// FromCSR builds a Matrix directly from a row-major CSR triplet plus its
// dense-ID -> EIP table — the ingestion bridge that lets externally
// supplied profiles (internal/profilefmt) enter the tree kernel without a
// map-based Dataset ever existing. The contract mirrors what IndexDataset
// produces: eips ascending and unique, each row's features in ascending
// dense-ID order with positive counts, rowStart[0] == 0 and
// rowStart[len(ys)] == len(rowFeat). Given the CSR form IndexDataset
// would have built for the same observations, FromCSR yields a
// bit-identical Matrix (the round-trip tests lock this). The Matrix takes
// ownership of the slices; callers must not mutate them afterwards.
func FromCSR(eips []uint64, ys []float64, rowStart, rowFeat, rowCnt []int32) *Matrix {
	if len(rowStart) != len(ys)+1 {
		panic(fmt.Sprintf("rtree: rowStart length %d for %d rows", len(rowStart), len(ys)))
	}
	if len(rowFeat) != len(rowCnt) || (len(rowStart) > 0 && int(rowStart[len(ys)]) != len(rowFeat)) {
		panic("rtree: inconsistent CSR triplet")
	}
	m := &Matrix{eips: eips, ys: ys, rowStart: rowStart, rowFeat: rowFeat, rowCnt: rowCnt}
	m.buildColumns()
	return m
}

// buildColumns derives the presorted column-major CSR from the row-major
// form: counting sort by feature into packed count<<32|row entries, then
// one in-place sort of each feature's sub-slice. Rows within a feature are
// unique, so sorting the packed entries orders them by (count, row).
func (m *Matrix) buildColumns() {
	F := len(m.eips)
	m.colStart = make([]int32, F+1)
	for _, f := range m.rowFeat {
		m.colStart[f+1]++
	}
	for f := 0; f < F; f++ {
		m.colStart[f+1] += m.colStart[f]
	}

	m.colEnt = make([]uint64, len(m.rowFeat))
	fill := make([]int32, F)
	for r := 0; r < len(m.ys); r++ {
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			f := m.rowFeat[k]
			m.colEnt[m.colStart[f]+fill[f]] = packEnt(m.rowCnt[k], int32(r))
			fill[f]++
		}
	}
	for f := 0; f < F; f++ {
		slices.Sort(m.colEnt[m.colStart[f]:m.colStart[f+1]])
	}
}

// packEnt packs one column entry as count<<32 | row, so that ascending
// uint64 order is (count, row) order.
func packEnt(cnt, row int32) uint64 { return uint64(uint32(cnt))<<32 | uint64(uint32(row)) }

// entRow and entCnt unpack a column entry.
func entRow(e uint64) int32 { return int32(uint32(e)) }
func entCnt(e uint64) int32 { return int32(e >> 32) }
