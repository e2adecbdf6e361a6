package spatialjoin

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/relation"
	"spatialjoin/internal/storage"
)

// rewriteShape overwrites the stored tuple id of c in place on its heap
// page with the same payload and shape, a record of the same length, then
// writes the page back (its checksum now vouches for the new bytes) and
// drops every cached page. The collection's R-tree is not told.
func rewriteShape(t *testing.T, db *Database, c *Collection, id int, payload string, shape Spatial) {
	t.Helper()
	sch, err := collectionSchema()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sch.Encode(nil, relation.Tuple{payload, shape})
	if err != nil {
		t.Fatal(err)
	}
	rid, err := c.rel.RID(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.pool.Write(rid.Page, func(page *storage.Page) (int, error) {
		old, err := page.Record(int(rid.Slot))
		if err != nil {
			return -1, err
		}
		if len(old) != len(rec) {
			return -1, fmt.Errorf("record of %d bytes, rewrite of %d: not in place", len(old), len(rec))
		}
		copy(old, rec)
		return int(rid.Slot), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
}

// TestThetaReadsTheHeapTuple stores r = (0,0)–(10,10) and s = (5,5)–(15,15)
// and rewrites r's heap tuple in place to (0,0)–(1,1): same length, still
// inside the MBR its R-tree entry holds, under a valid page checksum. θ's
// operand is the tuple read from the heap, not a copy kept beside it, so
// the tree join loses the pair and a tree selection of s's rectangle loses
// r, at one worker and at four, agreeing with the scan strategy. Before the
// rewrite all of them return the overlap.
func TestThetaReadsTheHeapTuple(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := db.CreateCollection("r")
		s, _ := db.CreateCollection("s")
		if _, err := r.Insert(NewRect(0, 0, 10, 10), "r"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(NewRect(5, 5, 15, 15), "s"); err != nil {
			t.Fatal(err)
		}
		window := NewRect(5, 5, 15, 15)
		check := func(stage string, wantPairs []Match, wantSel []int) {
			t.Helper()
			for _, strat := range []Strategy{TreeStrategy, ScanStrategy} {
				pairs, _, err := db.Join(r, s, Overlaps(), strat)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(pairs, wantPairs) {
					t.Errorf("workers %d, %s, %v join: %v, want %v", workers, stage, strat, pairs, wantPairs)
				}
				sel, _, err := db.Select(r, window, Overlaps(), strat)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(sel, wantSel) {
					t.Errorf("workers %d, %s, %v selection: %v, want %v", workers, stage, strat, sel, wantSel)
				}
			}
		}
		check("stored", []Match{{R: 0, S: 0}}, []int{0})
		rewriteShape(t, db, r, 0, "r", NewRect(0, 0, 1, 1))
		check("rewritten", nil, nil)
		if shape, _, err := r.Get(0); err != nil || shape != Spatial(NewRect(0, 0, 1, 1)) {
			t.Fatalf("Get(0) after the rewrite = %v, %v", shape, err)
		}
	}
}

// TestLocalJoinIndexReadsTheHeapTuple self-joins a collection of triangles,
// whose MBRs overlap far more often than they do, through a local join
// index at every anchor level from the root to past the leaves. Each must
// return the scan strategy's pairs: the index builds, answers and evaluates
// its live pairs with θ on the tuples read from the heap, never on the
// MBRs the R-tree stores.
func TestLocalJoinIndexReadsTheHeapTuple(t *testing.T) {
	db := openT(t)
	c, _ := db.CreateCollection("triangles")
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 300; i++ {
		center := Pt(rng.Float64()*400, rng.Float64()*400)
		if _, err := c.Insert(RegularPolygon(center, 5+rng.Float64()*20, 3), fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	op := Overlaps()
	want, _, err := db.Join(c, c, op, ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	mbrs := make([]Rect, c.Len())
	for id := range mbrs {
		shape, _, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		mbrs[id] = shape.Bounds()
	}
	mbrPairs := 0
	for _, a := range mbrs {
		for _, b := range mbrs {
			if a.Intersects(b) {
				mbrPairs++
			}
		}
	}
	if mbrPairs <= len(want) {
		t.Fatalf("%d MBR pairs, %d exact: the triangles cannot tell θ from Θ", mbrPairs, len(want))
	}
	for level := 0; level <= c.IndexHeight()+2; level++ {
		lji, err := db.BuildLocalJoinIndex(c, op, level)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := lji.SelfJoin()
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(got, func(a, b Match) int {
			if a.R != b.R {
				return cmp.Compare(a.R, b.R)
			}
			return cmp.Compare(a.S, b.S)
		})
		if !slices.Equal(got, want) {
			t.Errorf("level %d: %d pairs, the scan %d (the MBRs %d)", level, len(got), len(want), mbrPairs)
		}
	}
}
