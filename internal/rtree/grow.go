package rtree

import (
	"slices"
	"sync"
)

// This file is the columnar growth kernel. A builder carries every piece
// of scratch the best-first loop needs — the row-membership array that is
// partitioned in place, the per-node column slices, side flags, and the
// parallel-scoring buffers — and builders are pooled, so after warmup a
// Build allocates only the nodes the finished tree retains.
//
// Invariants the kernel preserves (and the equivalence tests lock in):
//
//   - A node's members b.rows[lo:hi] are in ascending dataset-row order:
//     the root starts ascending and splits partition stably.
//   - A node holds only its columns with >= MinLeaf member entries,
//     packed count<<32|row. This is exact: a split's right side is a
//     subset of the column's nonzero entries, so a shorter column never
//     has an admissible threshold, and descendants only shrink it.
//   - A node's column for a live feature f holds exactly its members'
//     nonzero entries in (count, row) order: the matrix's columns start
//     in that order and splits partition them stably, so no node ever
//     sorts anything.
//   - Features are scanned in ascending dense-ID order == ascending-EIP
//     order with a strict > gain comparison, so ties break toward the
//     lowest EIP and then the lowest threshold, exactly like the
//     reference kernel.
//   - Every floating-point accumulation (node sums, zero-side aggregates,
//     threshold prefix sums) visits values in the same order as the
//     reference kernel, so gains — and therefore whole trees — are
//     bit-for-bit identical.

// colSet holds one node's live slices of the presorted feature columns:
// feat lists the live feature IDs in ascending order, and feature feat[i]'s
// packed count<<32|row entries are ent[start[i]:start[i+1]], in (count,
// row) order. A column is live while it holds at least MinLeaf entries;
// shorter columns can never split this node or any descendant, so they
// are dropped.
type colSet struct {
	feat  []int32
	start []int32
	ent   []uint64
}

// parallelFeatureMin is the live-column count below which findBest stays
// serial: per-feature work is too small to amortize goroutine fan-out.
const parallelFeatureMin = 128

// builder is the pooled scratch state for one Build call.
type builder struct {
	m   *Matrix
	opt Options
	t   *Tree

	// rows is the membership array; each node owns [lo, hi).
	rows []int32
	// tmp stages a split's right side during the stable partition.
	tmp []int32
	// flag is indexed by dataset row: it marks the train subset while the
	// root columns are gathered, then marks the right side during each
	// split. It is always all-false between uses.
	flag []bool

	// Parallel split-search buffers, indexed like a colSet's feat.
	gains []float64
	thrs  []int32

	frontier []*node
	free     []*colSet // recycled column sets
}

var builderPool = sync.Pool{New: func() any { return &builder{} }}

func getBuilder(m *Matrix, opt Options) *builder {
	b := builderPool.Get().(*builder)
	b.m = m
	b.opt = opt
	if n := m.NumRows(); cap(b.flag) < n {
		b.flag = make([]bool, n)
	} else {
		b.flag = b.flag[:n]
	}
	if F := m.NumFeatures(); cap(b.gains) < F {
		b.gains = make([]float64, F)
		b.thrs = make([]int32, F)
	}
	return b
}

func putBuilder(b *builder) {
	b.m = nil
	b.t = nil
	b.frontier = b.frontier[:0]
	builderPool.Put(b)
}

// getColSet returns an empty column set with room for nEnt entries,
// written by index.
func (b *builder) getColSet(nEnt int) *colSet {
	cs := &colSet{}
	if n := len(b.free); n > 0 {
		cs = b.free[n-1]
		b.free = b.free[:n-1]
	}
	cs.feat = cs.feat[:0]
	cs.start = append(cs.start[:0], 0)
	cs.ent = slices.Grow(cs.ent[:0], nEnt)[:nEnt]
	return cs
}

// endCol closes feature f's column, whose entries were written to
// ent[start[len(start)-1]:w]. The column stays live if it holds at least
// minLeaf entries and is rewound otherwise; endCol returns the next write
// position.
func (cs *colSet) endCol(f, w int32, minLeaf int) int32 {
	s := cs.start[len(cs.start)-1]
	if int(w-s) < minLeaf {
		return s
	}
	cs.feat = append(cs.feat, f)
	cs.start = append(cs.start, w)
	return w
}

// releaseCols recycles a node's column slices once it can never split
// again (it became internal, or no admissible split exists).
func (b *builder) releaseCols(n *node) {
	if n.cols != nil {
		b.free = append(b.free, n.cols)
		n.cols = nil
	}
}

// rootCols gathers the root's column set by filtering the matrix's
// presorted columns down to the build's row subset, keeping only live
// columns. Filtering preserves order, so the result is already in (count,
// row) order per feature. The rows' nonzero counts bound the entries.
func (b *builder) rootCols() *colSet {
	m := b.m
	nnz := 0
	for _, r := range b.rows {
		b.flag[r] = true
		nnz += int(m.rowStart[r+1] - m.rowStart[r])
	}
	cs := b.getColSet(nnz)
	var w int32 // entries written
	for f := 0; f < m.NumFeatures(); f++ {
		for _, e := range m.colEnt[m.colStart[f]:m.colStart[f+1]] {
			if b.flag[entRow(e)] {
				cs.ent[w] = e
				w++
			}
		}
		w = cs.endCol(int32(f), w, b.opt.MinLeaf)
	}
	cs.ent = cs.ent[:w]
	for _, r := range b.rows {
		b.flag[r] = false
	}
	return cs
}

// findBest computes the node's best (feature, n) split by scanning its
// members' slice of every live presorted column. Candidate thresholds are
// the observed counts (including 0) except the maximum.
//
// With opt.Parallelism > 1 and enough live columns, the per-feature
// scoring fans out across workers. Each feature's score is computed
// independently of every other feature (no floating-point accumulation
// crosses feature boundaries), and the reduction scans features in
// ascending-ID order with a strict > comparison, so the chosen split —
// including tie-breaks toward the lowest EIP and lowest threshold — is
// identical to the serial scan.
func (b *builder) findBest(n *node) {
	n.bestGain = 0
	if n.count() < 2*b.opt.MinLeaf {
		b.releaseCols(n)
		return
	}
	parentSS := n.ss()
	if parentSS <= 1e-12 {
		b.releaseCols(n)
		return
	}

	cs := n.cols
	if b.opt.Parallelism > 1 && len(cs.feat) >= parallelFeatureMin {
		gains := b.gains[:len(cs.feat)]
		thrs := b.thrs[:len(cs.feat)]
		parallelFor(b.opt.Parallelism, len(cs.feat), func(i int) {
			gains[i], thrs[i] = b.scoreFeature(n, parentSS, cs.ent[cs.start[i]:cs.start[i+1]])
		})
		for i, f := range cs.feat {
			if gains[i] > n.bestGain {
				n.bestGain = gains[i]
				n.bestFeat = f
				n.bestN = thrs[i]
			}
		}
	} else {
		for i, f := range cs.feat {
			gain, thr := b.scoreFeature(n, parentSS, cs.ent[cs.start[i]:cs.start[i+1]])
			if gain > n.bestGain {
				n.bestGain = gain
				n.bestFeat = f
				n.bestN = thr
			}
		}
	}
	if n.bestGain == 0 {
		b.releaseCols(n)
	}
}

// scoreFeature scans one feature's candidate thresholds and returns the
// best achievable gain for this node along with its threshold (the first
// threshold in ascending order attaining that gain). ents are the node's
// members with a nonzero count, packed and presorted by (count, row); all
// remaining members implicitly have count 0. A gain of 0 means no
// admissible split.
func (b *builder) scoreFeature(n *node, parentSS float64, ents []uint64) (bestGain float64, bestThr int32) {
	m := n.count()
	nz := m - len(ents) // members with implicit zero count
	ys := b.m.ys

	// Zero-side aggregates.
	var nzSum, nzSumsq float64
	for _, e := range ents {
		y := ys[entRow(e)]
		nzSum += y
		nzSumsq += y * y
	}
	zeroSum := n.sum - nzSum
	zeroSumsq := n.sumsq - nzSumsq

	// Scan thresholds: after absorbing each distinct count value into
	// the left side, evaluate the split.
	minLeaf := b.opt.MinLeaf
	leftN := nz
	leftSum, leftSumsq := zeroSum, zeroSumsq
	i := 0
	for i <= len(ents) {
		// Threshold = count value of the left side's maximum; first
		// iteration (i==0) corresponds to threshold 0 (zeros only).
		if leftN >= minLeaf && m-leftN >= minLeaf && leftN > 0 && leftN < m {
			rightN := m - leftN
			rightSum := n.sum - leftSum
			rightSumsq := n.sumsq - leftSumsq
			ssL := leftSumsq - leftSum*leftSum/float64(leftN)
			ssR := rightSumsq - rightSum*rightSum/float64(rightN)
			gain := parentSS - ssL - ssR
			if gain > bestGain {
				thr := int32(0)
				if i > 0 {
					thr = entCnt(ents[i-1])
				}
				bestGain = gain
				bestThr = thr
			}
		}
		if i == len(ents) {
			break
		}
		// Absorb the next run of equal counts into the left side.
		c := entCnt(ents[i])
		for i < len(ents) && entCnt(ents[i]) == c {
			y := ys[entRow(ents[i])]
			leftN++
			leftSum += y
			leftSumsq += y * y
			i++
		}
	}
	return bestGain, bestThr
}

// applySplit turns a leaf with a computed best split into an internal
// node: the membership slice and every live column slice are stably
// partitioned between the children, columns that fall below MinLeaf
// entries on a side are dropped from that side, and the children's
// candidate splits are computed.
func (b *builder) applySplit(n *node) {
	m := b.m
	cs := n.cols
	f := n.bestFeat
	thr := n.bestN

	// Mark the right side: members whose count exceeds the threshold.
	// Everyone else (including implicit zeros) goes left.
	bi, _ := slices.BinarySearch(cs.feat, f)
	for _, e := range cs.ent[cs.start[bi]:cs.start[bi+1]] {
		if entCnt(e) > thr {
			b.flag[entRow(e)] = true
		}
	}

	// Partition the membership slice stably, accumulating each side's
	// response sums in member order and its members' nonzero counts, which
	// bound the side's column entries.
	left := &node{}
	right := &node{}
	var lnnz, rnnz int
	b.tmp = b.tmp[:0]
	w := n.lo
	for i := n.lo; i < n.hi; i++ {
		r := b.rows[i]
		y := m.ys[r]
		nnz := int(m.rowStart[r+1] - m.rowStart[r])
		if b.flag[r] {
			b.tmp = append(b.tmp, r)
			right.sum += y
			right.sumsq += y * y
			rnnz += nnz
		} else {
			b.rows[w] = r
			w++
			left.sum += y
			left.sumsq += y * y
			lnnz += nnz
		}
	}
	copy(b.rows[w:n.hi], b.tmp)
	left.lo, left.hi = n.lo, w
	right.lo, right.hi = w, n.hi

	// Partition every live column stably between the children, writing
	// by index.
	lcs := b.getColSet(min(lnnz, len(cs.ent)))
	rcs := b.getColSet(min(rnnz, len(cs.ent)))
	var lw, rw int32 // entries written
	for i, ff := range cs.feat {
		for _, e := range cs.ent[cs.start[i]:cs.start[i+1]] {
			if b.flag[entRow(e)] {
				rcs.ent[rw] = e
				rw++
			} else {
				lcs.ent[lw] = e
				lw++
			}
		}
		lw = lcs.endCol(ff, lw, b.opt.MinLeaf)
		rw = rcs.endCol(ff, rw, b.opt.MinLeaf)
	}
	lcs.ent, rcs.ent = lcs.ent[:lw], rcs.ent[:rw]
	left.cols, right.cols = lcs, rcs

	// Clear the side flags (tmp holds exactly the marked rows).
	for _, r := range b.tmp {
		b.flag[r] = false
	}
	b.releaseCols(n)

	n.split = &Split{EIP: m.eips[f], N: int(thr), Order: len(b.t.splits), Gain: n.bestGain}
	n.left, n.right = left, right
	b.t.splits = append(b.t.splits, n)
	b.findBest(left)
	b.findBest(right)
}
