package core

import (
	"context"
	"errors"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
)

// TestCtxStepFiresOnCrossing walks the examination count up by 1s, by 2s
// and by both mixed from every starting parity: the step must check the
// context exactly when a multiple of ctxStride is reached or stepped over.
func TestCtxStepFiresOnCrossing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for start := int64(0); start < 2*ctxStride; start++ {
		for _, steps := range [][]int64{{1}, {2}, {2, 1}, {2, 2, 1}} {
			nodes := start
			for i := 0; i < 4*ctxStride; i++ {
				added := steps[i%len(steps)]
				crossed := (nodes+added)/ctxStride != nodes/ctxStride
				nodes += added
				if fired := ctxStep(ctx, nodes, added) != nil; fired != crossed {
					t.Fatalf("start %d, steps %v: at %d (+%d) fired = %v, crossed a stride = %v",
						start, steps, nodes, added, fired, crossed)
				}
			}
		}
	}
	if err := ctxStep(nil, ctxStride, 1); err != nil {
		t.Fatalf("nil context: %v", err)
	}
}

// TestJoinObservesCancelAtEitherParity cancels a join in the middle of its
// longest run of two-node examinations — the item pairs of two wide,
// shallow trees, decided one examine2 after another — and requires the join
// to stop within ctxStride + 2 further examinations and to return the
// context's error. With rootKids children on both sides the run starts on
// an even count; with one more on the S side, on an odd one, where a step
// that fired only when the count equalled a multiple of ctxStride never
// fired at all and the join ran to completion with a nil error. (Package
// join's own ctxStep is fed loop indices that advance by one, so it cannot
// step over a multiple.)
func TestJoinObservesCancelAtEitherParity(t *testing.T) {
	const rootKids = 40
	wide := func(kids int) *BasicTree {
		root := NewBasicNode(geom.NewRect(0, 0, 100, 100), 0)
		for i := 1; i <= kids; i++ {
			root.AddChild(NewBasicNode(geom.NewRect(10, 10, 90, 90), i))
		}
		return NewBasicTree(root)
	}
	for _, sKids := range []int{rootKids, rootKids + 1} {
		// The root pair and the two passes examine 2 + sKids + rootKids
		// nodes; everything after is item pairs.
		passes := int64(2 + sKids + rootKids)
		cancelAt := passes + 10
		ctx, cancel := context.WithCancel(context.Background())
		var examined int64
		read := func(Node, *geom.Rect) (geom.Spatial, error) {
			if examined++; examined == cancelAt {
				cancel()
			}
			return nil, nil
		}
		res, err := Join(wide(rootKids), wide(sKids), pred.Overlaps{},
			&JoinOptions{Ctx: ctx, ReadR: read, ReadS: read})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%d × %d children (run starts on count %d): err = %v, result %v; want context.Canceled",
				rootKids, sKids, passes, err, res.Pairs != nil)
		}
		if examined < cancelAt {
			t.Fatalf("%d × %d children: the join stopped at touch %d, before the cancel at %d",
				rootKids, sKids, examined, cancelAt)
		}
		if after := examined - cancelAt; after > ctxStride+2 {
			t.Errorf("%d × %d children: %d examinations after the cancel, want ≤ %d",
				rootKids, sKids, after, ctxStride+2)
		}
	}
}
