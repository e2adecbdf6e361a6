// Package join is a golden fixture for the joinalloc analyzer: geometry
// allocations and observability calls inside nested join loops multiply
// per candidate pair, so they must live at loop or level boundaries.
package join

import (
	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
)

// nestedAppend grows a geometry buffer once per candidate pair.
func nestedAppend(rs, ss []geom.Rect) []geom.Rect {
	var hits []geom.Rect
	for _, r := range rs {
		for _, s := range ss {
			if r.Intersects(s) {
				hits = append(hits, s) // want "append of geometry values"
			}
		}
	}
	return hits
}

// nestedMakeAndEscape allocates scratch geometry per pair, twice over.
func nestedMakeAndEscape(rs, ss []geom.Rect, sink func(*geom.Rect, []geom.Point)) {
	for range rs {
		for _, s := range ss {
			pts := make([]geom.Point, 0, 4)     // want "make of geometry storage"
			sink(&geom.Rect{MinX: s.MinX}, pts) // want "heap-escaping geometry literal"
		}
	}
}

// nestedLiterals exercises the slice-literal and new shapes.
func nestedLiterals(rs, ss []geom.Rect, sink func(geom.Polygon, *geom.Point)) {
	for range rs {
		for range ss {
			pg := geom.Polygon{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}} // want "geometry slice literal"
			sink(pg, new(geom.Point))                                    // want "new of geometry"
		}
	}
}

// nestedTracing calls the observability layer per pair: the nil-trace
// fast path is only free when the hooks sit at level boundaries.
func nestedTracing(tr *obs.Trace, sp obs.SpanID, rs, ss []geom.Rect) {
	for _, r := range rs {
		for _, s := range ss {
			if r.Intersects(s) {
				tr.Annotate(sp, obs.Int("pair", 1)) // want "observability call obs.Annotate" "observability call obs.Int"
			}
		}
	}
}

// nestedRecorder emits a flight-recorder event per candidate pair: the
// ring is wait-free, but a per-pair event floods its fixed capacity and
// evicts the sparse events a post-incident dump actually needs.
func nestedRecorder(rec *obs.Recorder, rs, ss []geom.Rect) {
	for _, r := range rs {
		for _, s := range ss {
			if r.Intersects(s) {
				obs.Record(obs.RecFaultRetry, obs.RecCodeRead, 0, 0, 0) // want "flight-recorder emission obs.Record"
				rec.Record(obs.RecFaultRetry, obs.RecCodeRead, 0, 0, 0) // want "flight-recorder emission obs.Record"
			}
		}
	}
}

// levelRecorder is the approved recorder pattern: one event per level,
// at loop depth one where its cost amortizes over the whole frontier.
func levelRecorder(rs, ss []geom.Rect) {
	for range rs {
		obs.Record(obs.RecQueryStart, obs.RecCodeJoin, 0, 0, 0)
		for range ss {
		}
	}
}

// outerLoopBuffer is the approved pattern: the buffer grows at loop depth
// one, and a value-typed geometry literal is a stack value at any depth.
func outerLoopBuffer(rs, ss []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, 0, len(rs))
	for _, r := range rs {
		out = append(out, geom.Rect{MinX: r.MinX})
		for _, s := range ss {
			_ = geom.Rect{MinX: r.MinX, MaxX: s.MaxX}
		}
	}
	return out
}

// workerReset shows a function literal restarting the nesting count: the
// pool worker's own single loop is an outer loop again.
func workerReset(rs []geom.Rect, spawn func(func() []geom.Rect)) {
	for range rs {
		for range rs {
			spawn(func() []geom.Rect {
				var local []geom.Rect
				for _, r := range rs {
					local = append(local, r)
				}
				return local
			})
		}
	}
}

// descentScratchPerPair is the shape the synchronized descent used to
// have: the loop runs once per node pair and makes its scratch afresh each
// time — at loop depth one, and of no geometry type, so only the
// descent rule sees it.
func descentScratchPerPair(as, bs []core.Node, pass func(a, b core.Node) bool) int {
	n := 0
	for i, a := range as {
		b := bs[i]
		qual := make([]bool, b.NumChildren()) // want "slice make inside the loop of a tree-descent function"
		for j := range qual {
			qual[j] = pass(a, b.Child(j))
		}
		for j := range qual {
			kids := make([]core.Node, 0, 4) // want "slice make inside the loop of a tree-descent function"
			if qual[j] {
				kids = append(kids, b.Child(j))
			}
			n += len(kids)
		}
	}
	return n
}

// descentScratchReused is the approved shape: one scratch slice outside the
// loop, truncated and refilled per node. A map made per level is not a
// slice and stays legal.
func descentScratchReused(as, bs []core.Node, pass func(a, b core.Node) bool) int {
	n := 0
	var passed []core.Node
	for i, a := range as {
		seen := make(map[int]bool)
		b := bs[i]
		passed = passed[:0]
		for j, k := 0, b.NumChildren(); j < k; j++ {
			if c := b.Child(j); pass(a, c) && !seen[j] {
				seen[j] = true
				passed = append(passed, c)
			}
		}
		n += len(passed)
	}
	return n
}

// perBlockBuffer walks no tree, so a per-iteration slice at loop depth one
// is an ordinary block buffer.
func perBlockBuffer(blocks [][]geom.Rect) int {
	n := 0
	for _, blk := range blocks {
		ids := make([]int, len(blk))
		n += len(ids)
	}
	return n
}

// suppressed documents the escape hatch for a justified inner-loop copy.
func suppressed(rs, ss []geom.Rect) []geom.Rect {
	var hits []geom.Rect
	for range rs {
		for _, s := range ss {
			//sjlint:ignore joinalloc result buffer, amortized by growth policy
			hits = append(hits, s)
		}
	}
	return hits
}
