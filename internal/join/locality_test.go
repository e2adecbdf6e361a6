package join

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinindex"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/rtree"
)

// levelOrderJoin is the join's descent with every pair, item pairs
// included, decided in a QualPairs level of its own — the order algorithm
// JOIN had before childless pairs were decided where they are formed. It
// issues exactly the Θ evaluations core.Join does (JOIN4's restriction
// rule for two technical nodes, written out again below), only later, and
// reads every node it examines, as core.Join did before an item's page was
// read only for θ; θ evaluates what the readers returned for the pair. It is
// written for index trees of equal height alone: a node with children must
// be technical and is never paired with an item, so no SELECT pass ever
// descends.
func levelOrderJoin(t *testing.T, trR, trS core.Tree, op pred.Operator,
	readR, readS core.Reader) (matches []core.Match, filterEvals, itemPairs int64) {

	t.Helper()
	var dstA, dstB, dstChild geom.Rect
	read := func(f core.Reader, n core.Node, dst *geom.Rect) geom.Spatial {
		v, err := f(n, dst)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	type pair struct{ a, b core.Node }
	for qual := []pair{{trR.Root(), trS.Root()}}; len(qual) > 0; {
		var next []pair
		for _, p := range qual {
			a, b := p.a, p.b
			ra, tupleA := a.Tuple()
			sb, tupleB := b.Tuple()
			if tupleA != tupleB || tupleA != (a.NumChildren() == 0) || tupleB != (b.NumChildren() == 0) {
				t.Fatal("levelOrderJoin: not a pair of technical nodes or a pair of items")
			}
			if tupleA {
				itemPairs++
			}
			objA := read(readR, a, &dstA)
			objB := read(readS, b, &dstB)
			filterEvals++
			if !op.Filter(a.Bounds(), b.Bounds()) {
				continue
			}
			if tupleA && tupleB && op.Eval(objA, objB) {
				matches = append(matches, core.Match{R: ra, S: sb})
			}
			if tupleA {
				continue // a pair of items has no JOIN4
			}
			// Restrict the children of the larger MBR (b's on a tie)
			// against the other node; the other node's children are
			// crossed untested with a single pass, and otherwise
			// restricted against the union of the passes.
			aFirst := a.Bounds().Area() > b.Bounds().Area()
			first, second, readFirst, readSecond := b, a, readS, readR
			if aFirst {
				first, second, readFirst, readSecond = a, b, readR, readS
			}
			filter := func(firstSide, secondSide geom.Rect) bool {
				if aFirst {
					return op.Filter(firstSide, secondSide)
				}
				return op.Filter(secondSide, firstSide)
			}
			var firstPass, secondPass []core.Node
			var union geom.Rect
			for j := 0; j < first.NumChildren(); j++ {
				c := first.Child(j)
				read(readFirst, c, &dstChild)
				filterEvals++
				if filter(c.Bounds(), second.Bounds()) {
					firstPass = append(firstPass, c)
				}
			}
			for j, c := range firstPass {
				if j == 0 {
					union = c.Bounds()
				}
				union = union.Union(c.Bounds())
			}
			for i := 0; i < second.NumChildren() && len(firstPass) > 0; i++ {
				c := second.Child(i)
				if len(firstPass) == 1 {
					secondPass = append(secondPass, c)
					continue
				}
				read(readSecond, c, &dstChild)
				filterEvals++
				if filter(union, c.Bounds()) {
					secondPass = append(secondPass, c)
				}
			}
			aPass, bPass := secondPass, firstPass
			if aFirst {
				aPass, bPass = firstPass, secondPass
			}
			for _, a2 := range aPass {
				for _, b2 := range bPass {
					next = append(next, pair{a2, b2})
				}
			}
		}
		qual = next
	}
	return matches, filterEvals, itemPairs
}

// maxTupleOrderJoinReads bounds what the tree join below reads now that θ
// runs on a level's pairs of items after its Θ filter, in the paper's
// block schedule, releasing each R page once decoded and sweeping S in
// alternating directions: 470 pages. It read 590 when every block swept S
// ascending from a cold pool, 3,081 when θ ran pair by pair in (R, S)
// tuple-ID order, 3,648 when θ ran on each pair of items as the level
// formed it, and 10,635 when every examined item was touched before its Θ
// filter.
const maxTupleOrderJoinReads = 493

// TestTreeJoinDecidesItemPairsWhileTheirPagesAreResident is the locality
// pin of the tree join over two R-tree collections behind a 16-frame pool.
// Against the level-order walk above, which reads every node it examines,
// through the same pool dropped before each run, the join returns the same
// matches from the same Θ count; it reads at most a third of the walk's
// pages, because an item's page is read only when θ reads the item, and at
// most maxTupleOrderJoinReads, because θ reads the items in blocks, in
// heap order. Traced, the join has no item level and its per-level reads
// sum to Stats.PageReads. And the reads are exactly θ's operands: with no
// pages given, a level's refinement is one block, which reads each
// distinct item of a θ candidate once per side, and none is of a
// technical node.
func TestTreeJoinDecidesItemPairsWhileTheirPagesAreResident(t *testing.T) {
	opts := rtree.DefaultOptions()
	pool := newPool(t, 16)
	rng := rand.New(rand.NewSource(5))
	world := geom.NewRect(0, 0, 1000, 1000)
	rTab, rTree := newRTreeTable(t, pool, rng, "r", 2000, world, opts)
	sTab, sTree := newRTreeTable(t, pool, rng, "s", 2000, world, opts)
	if rTree.Height() != sTree.Height() {
		t.Fatalf("heights %d and %d: item pairs form only between trees of equal height",
			rTree.Height(), sTree.Height())
	}
	op := pred.Overlaps{}
	misses := func() int64 { return pool.Stats().Misses }
	drop := func() {
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
	}

	drop()
	before := misses()
	want, wantEvals, itemPairs := levelOrderJoin(t, rTree, sTree, op, rTab.Reader(nil), sTab.Reader(nil))
	walkReads := misses() - before

	drop()
	ctx, trace := obs.WithTrace(context.Background())
	got, stats, err := TreeJoin(ctx, rTree, rTab, sTree, sTab, op)
	if err != nil {
		t.Fatal(err)
	}
	equalMatchSets(t, "tree join vs level-order walk", got, want)
	if stats.FilterEvals != wantEvals {
		t.Errorf("FilterEvals = %d, the level-order walk evaluated %d", stats.FilterEvals, wantEvals)
	}
	if stats.PageReads*3 > walkReads {
		t.Errorf("tree join read %d pages, the level-order walk %d: want at most a third",
			stats.PageReads, walkReads)
	}
	if stats.PageReads > maxTupleOrderJoinReads {
		t.Errorf("tree join read %d pages, want at most %d: θ must read its items in tuple order",
			stats.PageReads, maxTupleOrderJoinReads)
	}
	t.Logf("reads: join %d, level-order walk %d; %d item pairs, %d θ evaluations",
		stats.PageReads, walkReads, itemPairs, stats.ExactEvals)
	levels := trace.SpansNamed("level")
	if len(levels) != rTree.Height() {
		t.Errorf("%d level spans, want %d: the item depth gets no level", len(levels), rTree.Height())
	}
	var levelReads int64
	for _, sp := range levels {
		r, _ := sp.IntAttr("reads")
		levelReads += r
	}
	if levelReads != stats.PageReads {
		t.Errorf("level reads sum to %d, PageReads = %d", levelReads, stats.PageReads)
	}

	var touches, technical int64
	count := func(read core.Reader) core.Reader {
		return func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
			touches++
			if _, ok := n.Tuple(); !ok {
				technical++
			}
			return read(n, dst)
		}
	}
	res, err := core.Join(rTree, sTree, op, &core.JoinOptions{ReadR: count(rTab.Reader(nil)), ReadS: count(sTab.Reader(nil))})
	if err != nil {
		t.Fatal(err)
	}
	cands := candidatePairs(t, rTab, sTab, op)
	if _, want := blockReads(t, cands, rTab, sTab, 0, pool.Capacity()); touches != want || technical != 0 {
		t.Errorf("%d touches (%d of technical nodes), want %d, one per distinct item of a θ candidate, and none technical",
			touches, technical, want)
	}
	if res.Stats.ExactEvals != int64(len(cands)) {
		t.Errorf("%d θ evaluations, want one per candidate pair: %d", res.Stats.ExactEvals, len(cands))
	}
}

// candidatePairs is what the tree join refines over two R-tree tables of
// equal height, found by brute force: every pair of items whose MBRs pass
// the Θ filter, read from the heap.
func candidatePairs(t *testing.T, r, s Table, op pred.Operator) []core.Match {
	t.Helper()
	rects := func(tab Table) []geom.Rect {
		out := make([]geom.Rect, tab.Rel.Len())
		for id := range out {
			if _, err := tab.read(id, nil, &out[id]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	rs, ss := rects(r), rects(s)
	var out []core.Match
	for i := range rs {
		for j := range ss {
			if op.Filter(rs[i], ss[j]) {
				out = append(out, core.Match{R: i, S: j})
			}
		}
	}
	return out
}

// blockReads is the block schedule's work over the candidate pairs, found
// independently of core.Refine: R's pages are taken in order, whole while
// the block's distinct R tuples stay at most block (a page that alone holds
// more is cut every block tuples), and block 0 is one block. Each block
// reads its distinct R pages in order, releasing each as it moves on, then
// its distinct S pages, ascending on even-numbered blocks and descending on
// odd ones. reads is what that access order misses in a cold LRU pool of
// frames pages where a released page is the next victim; touches counts the
// reader calls, one per distinct R and S tuple of each block.
func blockReads(t *testing.T, cands []core.Match, r, s Table, block, frames int) (reads, touches int64) {
	t.Helper()
	page := func(tab Table, id int) int {
		p, err := tab.Rel.PageOf(id)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	partners := map[int][]int{} // R tuple → its S candidates
	byPage := map[int][]int{}   // R page → its distinct R candidates
	for _, c := range cands {
		if len(partners[c.R]) == 0 {
			byPage[page(r, c.R)] = append(byPage[page(r, c.R)], c.R)
		}
		partners[c.R] = append(partners[c.R], c.S)
	}
	var pages []int
	for p := range byPage {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	var blocks [][]int
	var cur []int
	closeBlock := func() {
		if len(cur) > 0 {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	for _, p := range pages {
		ids := byPage[p]
		slices.Sort(ids)
		if block > 0 && len(cur)+len(ids) > block {
			closeBlock()
		}
		for _, id := range ids {
			if block > 0 && len(cur) == block {
				closeBlock()
			}
			cur = append(cur, id)
		}
	}
	closeBlock()

	// The pool: lru[0] is the most recently used page.
	type pageKey struct {
		s    bool
		page int
	}
	var lru []pageKey
	access := func(k pageKey) {
		if i := slices.Index(lru, k); i >= 0 {
			lru = slices.Delete(lru, i, i+1)
		} else {
			reads++
			if len(lru) == frames {
				lru = lru[:frames-1]
			}
		}
		lru = slices.Insert(lru, 0, k)
	}
	release := func(k pageKey) {
		if i := slices.Index(lru, k); i >= 0 {
			lru = append(slices.Delete(lru, i, i+1), k)
		}
	}
	for b, ids := range blocks {
		var rPages, sPages []int
		sIDs := map[int]bool{}
		for _, id := range ids {
			if p := page(r, id); len(rPages) == 0 || rPages[len(rPages)-1] != p {
				rPages = append(rPages, p)
			}
			for _, sid := range partners[id] {
				sPages, sIDs[sid] = append(sPages, page(s, sid)), true
			}
		}
		for _, p := range rPages {
			access(pageKey{false, p})
			release(pageKey{false, p})
		}
		slices.Sort(sPages)
		sPages = slices.Compact(sPages)
		if b%2 == 1 {
			slices.Reverse(sPages)
		}
		for _, p := range sPages {
			access(pageKey{true, p})
		}
		touches += int64(len(ids) + len(sIDs))
	}
	return reads, touches
}

// TestTreeJoinReadsCandidatePagesOncePerBlock joins two R-tree collections
// of equal height through a cold 16-frame pool and through a cold pool big
// enough for one block, and pins Stats.PageReads to blockReads' LRU replay
// of the brute-force candidate pairs, with blocks of m·(M−10) distinct R
// tuples: each block accesses its distinct R pages and its distinct S pages
// once, and at 16 frames a block's S sweep starts on the S pages the
// previous block left resident (470 reads, 590 when every block swept S
// from cold); the one block of 256 frames reads each page once (118). A
// join index over the matches is retrieved (strategy III) in the same
// schedule: its reads are blockReads' count over the stored pairs.
func TestTreeJoinReadsCandidatePagesOncePerBlock(t *testing.T) {
	opts := rtree.DefaultOptions()
	op := pred.Overlaps{}
	for _, frames := range []int{16, 256} {
		rng := rand.New(rand.NewSource(5))
		world := geom.NewRect(0, 0, 1000, 1000)
		pool := newPool(t, frames)
		rTab, rTree := newRTreeTable(t, pool, rng, "r", 2000, world, opts)
		sTab, sTree := newRTreeTable(t, pool, rng, "s", 2000, world, opts)
		if rTree.Height() != sTree.Height() {
			t.Fatalf("heights %d and %d: item pairs form only between trees of equal height",
				rTree.Height(), sTree.Height())
		}
		m := rTab.Rel.Len() / rTab.Rel.NumPages()
		block := m * (frames - 10)
		if frames > 16 && block < rTab.Rel.Len() {
			t.Fatalf("%d frames: blocks of %d R tuples, want one block for all %d", frames, block, rTab.Rel.Len())
		}
		cands := candidatePairs(t, rTab, sTab, op)
		want, _ := blockReads(t, cands, rTab, sTab, block, frames)
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		seq, stats, err := TreeJoin(context.Background(), rTree, rTab, sTree, sTab, op)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PageReads != want {
			t.Errorf("%d frames (blocks of %d R tuples): %d page reads, want %d: each block's distinct R and S pages once",
				frames, block, stats.PageReads, want)
		}
		if stats.ExactEvals != int64(len(cands)) {
			t.Errorf("%d frames: %d θ evaluations, want one per candidate: %d",
				frames, stats.ExactEvals, len(cands))
		}
		t.Logf("%d frames, blocks of %d: %d reads, %d candidates", frames, block, stats.PageReads, len(cands))

		// Strategy III retrieves the stored pairs in the same schedule.
		ix, err := joinindex.New(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range seq {
			if _, err := ix.Add(m.R, m.S); err != nil {
				t.Fatal(err)
			}
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		_, stats, err = IndexJoin(context.Background(), ix, rTab, sTab)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := blockReads(t, seq, rTab, sTab, block, frames); stats.PageReads != want {
			t.Errorf("%d frames: index join read %d pages, want %d: each block's distinct R and S pages once",
				frames, stats.PageReads, want)
		}
	}
}
