package rtree

import (
	"cmp"

	"spatialjoin/internal/geom"
)

// splitScratch is the memory a split works in, carved from three arrays.
// The Tree owns it and every split reuses it, so a split allocates nothing
// but, once per block of records, the sibling's block.
// order[o] is the permutation of the M+1 entries under sort o — axis o/2
// (0 is x, 1 is y), by lower edge for even o and by upper edge for odd o —
// and pre[o][i] and suf[o][i] bound the first i+1 and the last M+1−i
// entries of that sort. key[i] and tie[i] are entry i's sort edge and other
// edge under the sort being made.
type splitScratch struct {
	all      []slot
	order    [4][]int
	pre, suf [4][]geom.Rect
	key, tie []float64
}

func newSplitScratch(maxEntries int) splitScratch {
	n := maxEntries + 1
	ints, rects, keys := make([]int, 4*n), make([]geom.Rect, 8*n), make([]float64, 2*n)
	s := splitScratch{all: make([]slot, 0, n), key: keys[:n], tie: keys[n:]}
	for o := range s.order {
		s.order[o] = ints[o*n : (o+1)*n]
		s.pre[o], s.suf[o] = rects[2*o*n:(2*o+1)*n], rects[(2*o+1)*n:(2*o+2)*n]
	}
	return s
}

// splitNode distributes the M slots of the full record n and the slot e
// over n and a new sibling record by the R*-tree split (Beckmann, Kriegel,
// Schneider & Seeger, SIGMOD 1990). ChooseSplitAxis takes the axis whose
// distributions have the smaller margin sum; ChooseSplitIndex takes, on
// that axis, the distribution with the least overlap between its two
// groups, then the least total area. A distribution cuts a sort after its
// first k slots, m ≤ k ≤ M+1−m. Ties go to the x axis, the lower-edge sort
// and the smaller k, so a tree built by the same inserts is the same tree.
// n keeps the larger group. Both records' rectangles are set; the sibling
// is returned.
func (t *Tree) splitNode(n *record, e slot) *record {
	s := &t.split
	s.all = append(append(s.all[:0], n.slots()...), e)
	m, last := t.opts.MinEntries, len(s.all)-t.opts.MinEntries

	var margin [2]float64
	for o := range s.order {
		s.sortAndBound(o)
		for k := m; k <= last; k++ {
			margin[o/2] += s.pre[o][k-1].Margin() + s.suf[o][k].Margin()
		}
	}
	axis := 0
	if margin[1] < margin[0] {
		axis = 1
	}

	bestO, bestK := -1, 0
	var bestOverlap, bestArea float64
	for o := 2 * axis; o < 2*axis+2; o++ {
		for k := m; k <= last; k++ {
			g1, g2 := s.pre[o][k-1], s.suf[o][k]
			overlap, area := overlapArea(g1, g2), g1.Area()+g2.Area()
			if bestO < 0 || overlap < bestOverlap ||
				(geom.SameCoord(overlap, bestOverlap) && area < bestArea) {
				bestO, bestK, bestOverlap, bestArea = o, k, overlap, area
			}
		}
	}

	big, small := s.order[bestO][:bestK], s.order[bestO][bestK:]
	nRect, sibRect := s.pre[bestO][bestK-1], s.suf[bestO][bestK]
	if len(big) < len(small) {
		big, small, nRect, sibRect = small, big, sibRect, nRect
	}
	sib := t.newRecord(n.leaf)
	s.fill(n, big, nRect)
	s.fill(sib, small, sibRect)
	return sib
}

// fill writes the split's slots picked, in order, into r and sets its
// rectangle to their bound.
func (s *splitScratch) fill(r *record, picked []int, bound geom.Rect) {
	r.count, r.rect = uint16(len(picked)), bound
	for j, i := range picked {
		r.slots()[j] = s.all[i]
	}
}

// sortAndBound fills order[o] with sort o of the split's entries — by the
// sort's edge, then the other edge on the same axis, then position, a total
// order — and the prefix and suffix rectangles of that order. The sort is
// an insertion sort over the entries' keys, computed once: it is stable and
// starts from position order, so entries equal in both keys stay in
// position order.
func (s *splitScratch) sortAndBound(o int) {
	all, order, pre, suf := s.all, s.order[o][:len(s.all)], s.pre[o], s.suf[o]
	key, tie := s.key[:len(all)], s.tie[:len(all)]
	for i := range all {
		key[i], tie[i] = edges(all[i].rect, o/2)
		if o%2 == 1 {
			key[i], tie[i] = tie[i], key[i]
		}
	}
	for i := range order {
		j := i
		for ; j > 0; j-- {
			c := cmp.Compare(key[order[j-1]], key[i])
			if c < 0 || c == 0 && cmp.Compare(tie[order[j-1]], tie[i]) <= 0 {
				break
			}
			order[j] = order[j-1]
		}
		order[j] = i
	}
	last := len(order) - 1
	pre[0], suf[last] = all[order[0]].rect, all[order[last]].rect
	for i := 1; i <= last; i++ {
		pre[i] = pre[i-1].Union(all[order[i]].rect)
		suf[last-i] = suf[last-i+1].Union(all[order[last-i]].rect)
	}
}

// edges returns r's lower and upper coordinates on axis 0 (x) or 1 (y).
func edges(r geom.Rect, axis int) (lo, hi float64) {
	if axis == 0 {
		return r.MinX, r.MaxX
	}
	return r.MinY, r.MaxY
}

// overlapArea is the area r and o share.
func overlapArea(r, o geom.Rect) float64 {
	in, ok := r.Intersection(o)
	if !ok {
		return 0
	}
	return in.Area()
}
