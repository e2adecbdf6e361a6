package core_test

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/rtree"
)

// rtreePair returns the generalizations of two R-trees of n uniform
// rectangles each, tuple IDs in insertion order, so that the items under a
// leaf carry scattered IDs. Their heights are equal: every θ is then on a
// pair of items, and every pair of items is decided by the refinement.
func rtreePair(t *testing.T, n int) (core.Tree, core.Tree) {
	t.Helper()
	world := geom.NewRect(0, 0, 1000, 1000)
	build := func(seed int64) core.Tree {
		rt := rtree.MustNew(rtree.DefaultOptions())
		for i, r := range datagen.UniformRects(rand.New(rand.NewSource(seed)), n, world, 2, 30) {
			rt.Insert(r, i)
		}
		return rt.Generalization()
	}
	tr, ts := build(3), build(4)
	if tr.Height() != ts.Height() {
		t.Fatalf("heights %d and %d: item pairs form only between trees of equal height",
			tr.Height(), ts.Height())
	}
	return tr, ts
}

// readRect is the reader of a rectangle-only test tree: a rectangle is its
// own MBR, so the tuple an item references is the rectangle it stores. A
// read with no dst is one whose value the node carries, and builds none.
func readRect(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
	if dst == nil {
		return nil, nil
	}
	*dst = n.Bounds()
	return dst, nil
}

// TestReferenceOnlyNodeWithoutReaderFails runs a join and a selection over
// R-trees, whose items store only their MBRs, with no reader: θ has no
// operand, so both fail instead of evaluating θ on the MBR. With readers
// they succeed and find matches.
func TestReferenceOnlyNodeWithoutReaderFails(t *testing.T) {
	tr, ts := rtreePair(t, 200)
	if _, err := core.Join(tr, ts, pred.Overlaps{}, nil); err == nil {
		t.Error("a join over R-trees with no reader succeeded")
	}
	if _, err := core.Join(tr, ts, pred.Overlaps{}, &core.JoinOptions{ReadR: readRect}); err == nil {
		t.Error("a join over R-trees with no S reader succeeded")
	}
	window := geom.NewRect(0, 0, 500, 500)
	if _, err := core.Select(tr, window, pred.Overlaps{}, nil); err == nil {
		t.Error("a selection over an R-tree with no reader succeeded")
	}
	res, err := core.Join(tr, ts, pred.Overlaps{}, &core.JoinOptions{ReadR: readRect, ReadS: readRect})
	if err != nil || len(res.Pairs) == 0 {
		t.Fatalf("join with readers: %d matches, err %v", len(res.Pairs), err)
	}
	sel, err := core.Select(tr, window, pred.Overlaps{}, &core.SelectOptions{Read: readRect})
	if err != nil || len(sel.Tuples) == 0 {
		t.Fatalf("selection with a reader: %d matches, err %v", len(sel.Tuples), err)
	}
}

func compareMatches(a, b core.Match) int {
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.S, b.S)
}

// pagesOf places tuple id on page id/k, k tuples a page, as a relation
// that appends them does.
type pagesOf int

func (k pagesOf) PageOf(id int) (int, error) { return id / int(k), nil }

func (pagesOf) Release(int) {}

// releaseLog is a placement that reports each page released to released.
type releaseLog struct {
	pagesOf
	released func(page int)
}

func (p releaseLog) Release(page int) { p.released(page) }

// blockOpts is a block schedule of many blocks for rtreePair's trees: 8
// tuples a page and blocks of 3 pages' worth of R tuples.
func blockOpts() *core.JoinOptions {
	return &core.JoinOptions{PagesR: pagesOf(8), PagesS: pagesOf(8), Block: 24}
}

// TestJoinRefinesInBlockOrder joins two R-tree generalizations in a block
// schedule of many blocks and records every read and every R-page release,
// split into levels by the "level" spans the descent has begun, and each
// level into blocks where an R read follows an S read.
// Within each level the reads are of items only, and each block reads its
// R operands first — each distinct R tuple once, at most Block of them, in
// (R page, R) order that continues the previous block's — releasing each
// R page once, as the reads leave it, and then its S operands, each once:
// in strictly ascending (S page, S) order on the level's even-numbered
// blocks and strictly descending on its odd ones. A block ends on an
// R-page boundary unless its one page alone fills it. The θ count and the
// match set are those of a refinement that is one block, whose matches
// come out (R, S)-sorted.
func TestJoinRefinesInBlockOrder(t *testing.T) {
	tr, ts := rtreePair(t, 1000)
	type touch struct {
		side      byte // R or S for a read, r for the release of R page id
		id        int
		technical bool
	}
	var levels [][]touch
	opts := blockOpts()
	opts.Trace = obs.NewTrace()
	add := func(x touch) {
		for len(levels) < len(opts.Trace.Spans()) {
			levels = append(levels, nil)
		}
		last := len(levels) - 1
		levels[last] = append(levels[last], x)
	}
	record := func(side byte) core.Reader {
		return func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
			id, ok := n.Tuple()
			add(touch{side, id, !ok})
			return readRect(n, dst)
		}
	}
	opts.ReadR, opts.ReadS = record('R'), record('S')
	opts.PagesR = releaseLog{pagesOf(8), func(page int) { add(touch{'r', page, false}) }}
	res, err := core.Join(tr, ts, pred.Overlaps{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides use the same placement, pagesOf(8).
	type placed struct{ page, id int }
	place := func(x touch) placed { return placed{x.id / 8, x.id} }
	before := func(a, b placed) bool { return a.page < b.page || a.page == b.page && a.id < b.id }
	var blocks int
	for l, group := range levels {
		lastR, lastLen, lastFirst := placed{-1, -1}, 0, -1
		for b, i := 0, 0; i < len(group); b++ {
			// One block: a run of R reads, each R page released after its
			// last read, then a run of S reads.
			j := i
			var rs []touch
			for ; j < len(group) && group[j].side != 'S'; j++ {
				x, prev := group[j], group[max(j-1, 0)]
				switch {
				case x.side == 'r' && (j == i || prev.side != 'R' || place(prev).page != x.id):
					t.Fatalf("level group %d: release of R page %d after %+v, want right after a read on it", l, x.id, prev)
				case x.side == 'R' && len(rs) > 0 && place(rs[len(rs)-1]).page != place(x).page && prev.side != 'r':
					t.Fatalf("level group %d: R read %d on a new page before R page %d was released",
						l, x.id, place(rs[len(rs)-1]).page)
				case x.side == 'R':
					rs = append(rs, x)
				}
			}
			if j > i && group[j-1].side != 'r' {
				t.Fatalf("level group %d, block at read %d: the block's last R page is not released", l, i)
			}
			k := j
			for k < len(group) && group[k].side == 'S' {
				k++
			}
			ss := group[j:k]
			if len(rs) == 0 || len(ss) == 0 {
				t.Fatalf("level group %d, block at read %d: %d R reads, %d S reads; want both",
					l, i, len(rs), len(ss))
			}
			if len(rs) > opts.Block {
				t.Errorf("level group %d, block at read %d: %d R operands, want at most %d",
					l, i, len(rs), opts.Block)
			}
			for _, run := range [][]touch{rs, ss} {
				for x := range run {
					if run[x].technical {
						t.Fatalf("level group %d: read of a technical node %+v", l, run[x])
					}
					if x == 0 {
						continue
					}
					prev, cur := place(run[x-1]), place(run[x])
					if run[x].side == 'S' && b%2 == 1 {
						prev, cur = cur, prev
					}
					if !before(prev, cur) {
						t.Fatalf("level group %d, block %d: %c read %d after %d, out of its (page, ID) order or repeated in a block",
							l, b, run[x].side, run[x].id, run[x-1].id)
					}
				}
			}
			first := place(rs[0])
			if !before(lastR, first) {
				t.Fatalf("level group %d: block begins at R %d after R %d, out of (R page, R) order",
					l, first.id, lastR.id)
			}
			if lastR.page == first.page && (lastFirst != lastR.page || lastLen != opts.Block) {
				t.Errorf("level group %d: R page %d split between blocks after a block of %d R operands from page %d on; only a page that alone fills a block of %d is split",
					l, lastR.page, lastLen, lastFirst, opts.Block)
			}
			lastR, lastLen, lastFirst = place(rs[len(rs)-1]), len(rs), first.page
			blocks++
			i = k
		}
	}
	if blocks < 10 || res.Stats.ExactEvals == 0 || len(res.Pairs) == 0 {
		t.Fatalf("%d blocks, %d θ evaluations, %d matches: the order check is vacuous",
			blocks, res.Stats.ExactEvals, len(res.Pairs))
	}
	one, err := core.Join(tr, ts, pred.Overlaps{}, &core.JoinOptions{ReadR: readRect, ReadS: readRect})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != one.Stats {
		t.Errorf("stats %+v in blocks, %+v in one block", res.Stats, one.Stats)
	}
	if !slices.IsSortedFunc(one.Pairs, compareMatches) {
		t.Error("the matches of a one-block refinement are not (R, S)-sorted")
	}
	got := slices.Clone(res.Pairs)
	core.SortMatches(got)
	if !slices.Equal(got, one.Pairs) {
		t.Errorf("%d matches in blocks, %d in one block, or a different set", len(got), len(one.Pairs))
	}
}

// TestJoinRefinementHonoursCancel cancels a join from inside a reader
// halfway through the refinement's R reads — inside a block's R decode —
// and again halfway through its S reads, in a block schedule of many
// blocks over R-trees, where the refinement makes every read. The
// examination count that paces the descent's context checks does not move
// there, so the refinement checks the context before every read and every
// θ: the read that cancelled completes, no other read begins, and the join
// returns context.Canceled.
func TestJoinRefinementHonoursCancel(t *testing.T) {
	tr, ts := rtreePair(t, 1000)
	var readsR, readsS int64
	full := blockOpts()
	full.ReadR = func(n core.Node, dst *geom.Rect) (geom.Spatial, error) { readsR++; return readRect(n, dst) }
	full.ReadS = func(n core.Node, dst *geom.Rect) (geom.Spatial, error) { readsS++; return readRect(n, dst) }
	if _, err := core.Join(tr, ts, pred.Overlaps{}, full); err != nil {
		t.Fatal(err)
	}
	for _, side := range []byte{'R', 'S'} {
		cancelAt := readsR / 2
		if side == 'S' {
			cancelAt = readsS / 2
		}
		ctx, cancel := context.WithCancel(context.Background())
		var touched, after int64
		cancelled := false
		reader := func(cancels bool) core.Reader {
			return func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
				if cancelled {
					after++
				} else if cancels {
					if touched++; touched == cancelAt {
						cancel()
						cancelled = true
					}
				}
				return readRect(n, dst)
			}
		}
		opts := blockOpts()
		opts.Ctx = ctx
		opts.ReadR, opts.ReadS = reader(side == 'R'), reader(side == 'S')
		res, err := core.Join(tr, ts, pred.Overlaps{}, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%c side: err = %v, result %v; want context.Canceled", side, err, res.Pairs != nil)
		}
		if !cancelled {
			t.Fatalf("%c side: the join stopped at read %d, before the cancel at %d", side, touched, cancelAt)
		}
		if after != 0 {
			t.Errorf("%c side: %d reads began after the cancel, want 0", side, after)
		}
	}
}

// lostPages fails every page lookup.
type lostPages struct{}

func (lostPages) PageOf(id int) (int, error) { return 0, errLostPage }

func (lostPages) Release(int) {}

var errLostPage = errors.New("page lookup failed")

// TestJoinRefinementReturnsPageLookupErrors joins R-trees whose tuples
// cannot be placed on their pages, on either side: the refinement cannot
// schedule its reads, so the join fails with the lookup's error instead of
// refining in some other order.
func TestJoinRefinementReturnsPageLookupErrors(t *testing.T) {
	tr, ts := rtreePair(t, 200)
	for _, side := range []string{"R", "S"} {
		opts := blockOpts()
		opts.ReadR, opts.ReadS = readRect, readRect
		if side == "R" {
			opts.PagesR = lostPages{}
		} else {
			opts.PagesS = lostPages{}
		}
		if _, err := core.Join(tr, ts, pred.Overlaps{}, opts); !errors.Is(err, errLostPage) {
			t.Errorf("%s pages lost: err = %v, want the lookup's error", side, err)
		}
	}
}
