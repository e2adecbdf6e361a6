package main

import (
	"fmt"
	"math/rand"
	"slices"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// The inputs of every workload live in one 10 000² world; every stored
// object carries a 16-byte payload next to its 32-byte rectangle, so one
// insert is 48 bytes of user data.
const (
	worldSide     = 10000
	payloadBytes  = 16
	userBytesPer  = 32 + payloadBytes
	windowSide    = 200
	minSide       = 2
	maxSide       = worldSide / 100
	clusters      = 16
	clusterSpread = worldSide / 8
	clusterSide   = worldSide / 150.0
)

var world = geom.NewRect(0, 0, worldSide, worldSide)

// pageSize is the engine's default page, which every workload keeps and the
// harness-owned probe devices copy.
var pageSize = spatialjoin.DefaultConfig().PageSize

// subSeed derives the generator for one part of a workload's inputs, so
// parts do not shift when another part changes size.
func subSeed(seed int64, part int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(part)))
}

// payloadOf is the 16-byte payload stored with object id.
func payloadOf(id int) string { return fmt.Sprintf("%016x", uint64(id)*0x9E3779B97F4A7C15) }

// uniformRects are n rectangles with sides 2…100 placed uniformly.
func uniformRects(rng *rand.Rand, n int) []geom.Rect {
	return datagen.UniformRects(rng, n, world, minSide, maxSide)
}

// clusteredRects are n squares in 16 Gaussian clusters — sjoind's default
// inner relation.
func clusteredRects(rng *rand.Rand, n int) []geom.Rect {
	return datagen.ClusteredRects(rng, n, clusters, world, clusterSpread, clusterSide)
}

// windows are n seeded 200×200 query windows.
func windows(rng *rand.Rand, n int) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		x := rng.Float64() * (worldSide - windowSide)
		y := rng.Float64() * (worldSide - windowSide)
		out[i] = geom.NewRect(x, y, x+windowSide, y+windowSide)
	}
	return out
}

// overlapJoin is the join oracle: every (i, j) with rs[i] overlapping
// ss[j], by exhaustive comparison, in the engine's canonical (R, S) order.
// Object ids are insertion positions, so the pairs are directly comparable
// with the engine's matches.
func overlapJoin(rs, ss []geom.Rect) []spatialjoin.Match {
	var out []spatialjoin.Match
	for i, r := range rs {
		for j, s := range ss {
			if r.Intersects(s) {
				out = append(out, spatialjoin.Match{R: i, S: j})
			}
		}
	}
	return out
}

// overlapSelect is the window oracle: the ids of the first n rects that
// overlap w, ascending, by exhaustive comparison.
func overlapSelect(rects []geom.Rect, n int, w geom.Rect) []int {
	var out []int
	for id, r := range rects[:n] {
		if w.Intersects(r) {
			out = append(out, id)
		}
	}
	return out
}

// sameIDs reports whether got is exactly the id set want. The engine
// returns a tree selection in traversal order, so got is sorted (in place)
// before the element-wise comparison.
func sameIDs(got, want []int) bool {
	slices.Sort(got)
	return slices.Equal(got, want)
}
