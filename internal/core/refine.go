package core

import (
	"cmp"
	"slices"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
)

// Pages places a relation's tuples on its heap pages, which is what the
// refinement step schedules its reads by. Release tells it the step is done
// with a page: Refine releases each R page once its block has decoded it.
// *relation.Relation satisfies it.
type Pages interface {
	PageOf(id int) (int, error)
	Release(page int)
}

// Candidate is a pair of tuples waiting for the refinement step: two nodes
// that only reference their tuples and passed Θ, or a stored join-index
// pair. Refine reads R's tuple through JoinOptions.ReadR and S's through
// ReadS.
type Candidate struct {
	R, S Node

	ids   Match // the tuple IDs of R and S
	op    int   // the index of R's operand in its block
	match bool  // θ held
}

// refKey places one side of candidate c: its tuple's page and ID, and the
// other side's ID. The kernel sorts keys, not candidates, so a sort moves
// 32 bytes an entry.
type refKey struct {
	page, id, other int
	c               int
}

func compareKeys(x, y refKey) int {
	if c := cmp.Compare(x.page, y.page); c != 0 {
		return c
	}
	if c := cmp.Compare(x.id, y.id); c != 0 {
		return c
	}
	return cmp.Compare(x.other, y.other)
}

// Refine is the refinement step of a join over candidate pairs, in the
// paper's block schedule: the pairs are sorted by (R page, R, S) and cut
// at R-page boundaries into blocks of at most opts.Block distinct R tuples
// (the paper's m·(M−10), which prices D_IIa and D_III); a block's R
// operands are read once and held decoded, each R page released as the
// reads leave it, then each S operand is read once in (S page, S, R)
// order, reversed on odd blocks to start on the S pages the last block
// left in the pool, and θ runs on every pair with its S operand in hand.
// With op nil nothing is evaluated: the pairs are the answer (a join
// index's) and only their tuples are read, with no dst. The context is
// checked before every read and every θ. Matches are appended to
// res.Pairs, which grows once, after the last block: block by block, each
// block's in (R page, R, S) order, which is (R, S) order where IDs follow
// pages.
func Refine(cs []Candidate, op pred.Operator, opts *JoinOptions, res *JoinResult) error {
	sc := joinScratchPool.Get().(*joinScratch)
	defer sc.release()
	return sc.refineBlocks(cs, op, opts, res)
}

// refineBlocks runs Refine over cs with the scratch holding the sort keys
// and each block's R operands.
func (sc *joinScratch) refineBlocks(cs []Candidate, op pred.Operator, opts *JoinOptions,
	res *JoinResult) error {

	// Each list is grown once to its full length, not by appends: a pooled
	// scratch the collector emptied regrows in one allocation per list.
	sc.rKeys = slices.Grow(sc.rKeys[:0], len(cs))
	for i := range cs {
		c := &cs[i]
		c.ids.R, _ = c.R.Tuple()
		c.ids.S, _ = c.S.Tuple()
		page, err := pageOf(opts.PagesR, c.ids.R)
		if err != nil {
			return err
		}
		sc.rKeys = append(sc.rKeys, refKey{page, c.ids.R, c.ids.S, i})
	}
	slices.SortFunc(sc.rKeys, compareKeys)
	matches := 0
	for b, lo := 0, 0; lo < len(sc.rKeys); b++ {
		hi := blockEnd(sc.rKeys, lo, opts.Block)
		n, err := sc.refineBlock(cs, sc.rKeys[lo:hi], b%2 == 1, op, opts, res)
		if err != nil {
			return err
		}
		matches += n
		lo = hi
	}
	// The blocks are consecutive runs of rKeys, so emitting the matches in
	// rKeys order after the last block emits them block by block, and
	// res.Pairs grows once per refinement, to its exact size.
	res.Pairs = slices.Grow(res.Pairs, matches)
	for _, k := range sc.rKeys {
		if c := &cs[k.c]; c.match {
			res.Pairs = append(res.Pairs, c.ids)
		}
	}
	return nil
}

// pageOf is tuple id's page, or id itself when there is no placement: each
// tuple on a page of its own.
func pageOf(p Pages, id int) (int, error) {
	if p == nil {
		return id, nil
	}
	return p.PageOf(id)
}

// blockEnd returns the end of the block that starts at keys[lo], in R keys
// sorted by (page, R, S): whole R pages while their distinct R tuples number
// at most block, or, where the block's first page alone holds more, that
// page's first block tuples. block ≤ 0 makes the rest one block.
func blockEnd(keys []refKey, lo, block int) int {
	if block <= 0 {
		return len(keys)
	}
	n, pageStart := 0, lo
	for i := lo; i < len(keys); i++ {
		if i > lo && keys[i].page != keys[i-1].page {
			pageStart = i
		}
		if i > lo && keys[i].id == keys[i-1].id {
			continue
		}
		if n == block {
			if pageStart > lo {
				return pageStart
			}
			return i
		}
		n++
	}
	return len(keys)
}

// refineBlock reads the block's distinct R operands once each into the
// scratch, releasing each R page after it, then sweeps its S operands in
// (S page, S, R) order, or descending, each once, with θ on every pair as
// its S operand arrives. It marks the matches and returns how many.
func (sc *joinScratch) refineBlock(cs []Candidate, block []refKey, descending bool,
	op pred.Operator, opts *JoinOptions, res *JoinResult) (matches int, err error) {

	sc.ops = slices.Grow(sc.ops[:0], len(block))
	if cap(sc.rects) < len(block) {
		sc.rects = make([]geom.Rect, len(block))
	}
	sc.sKeys = slices.Grow(sc.sKeys[:0], len(block))
	for i, k := range block {
		c := &cs[k.c]
		if i == 0 || k.id != block[i-1].id {
			if i > 0 && k.page != block[i-1].page && opts.PagesR != nil {
				opts.PagesR.Release(block[i-1].page)
			}
			if err := ctxErr(opts.Ctx); err != nil {
				return 0, err
			}
			var dst *geom.Rect
			if op != nil {
				dst = &sc.rects[len(sc.ops)]
			}
			v, err := Operand(opts.ReadR, c.R, dst)
			if err != nil {
				return 0, err
			}
			sc.ops = append(sc.ops, v)
		}
		c.op = len(sc.ops) - 1
		page, err := pageOf(opts.PagesS, c.ids.S)
		if err != nil {
			return 0, err
		}
		sc.sKeys = append(sc.sKeys, refKey{page, c.ids.S, c.ids.R, k.c})
	}
	if opts.PagesR != nil {
		opts.PagesR.Release(block[len(block)-1].page)
	}
	slices.SortFunc(sc.sKeys, compareKeys)
	if descending {
		slices.Reverse(sc.sKeys)
	}
	var so geom.Spatial
	for i, k := range sc.sKeys {
		c := &cs[k.c]
		if i == 0 || k.id != sc.sKeys[i-1].id {
			if err := ctxErr(opts.Ctx); err != nil {
				return 0, err
			}
			var dst *geom.Rect
			if op != nil {
				dst = &sc.dstS
			}
			var err error
			if so, err = Operand(opts.ReadS, c.S, dst); err != nil {
				return 0, err
			}
		}
		if op == nil {
			continue
		}
		if err := ctxErr(opts.Ctx); err != nil {
			return 0, err
		}
		res.Stats.ExactEvals++
		if c.match = op.Eval(sc.ops[c.op], so); c.match {
			matches++
		}
	}
	return matches, nil
}
