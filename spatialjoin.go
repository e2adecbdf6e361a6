// Package spatialjoin is a library for the efficient computation of spatial
// joins, reproducing Günther's ICDE 1993 framework: generalization trees
// (hierarchies of spatially nested objects, with Guttman R-trees as the
// built-in abstract instance), the hierarchical SELECT and JOIN algorithms
// driven by Θ filter operators, Valduriez-style join indices, a blocked
// nested-loop baseline, an Orenstein z-order sort-merge join for the
// overlaps operator, and the paper's full analytical cost model.
//
// The high-level entry point is Database: an embedded spatial store over a
// simulated paged disk whose buffer-pool I/O is measured, so the cost
// trade-offs the paper analyzes can be observed on live queries.
//
//	db, _ := spatialjoin.Open(spatialjoin.DefaultConfig())
//	lakes, _ := db.CreateCollection("lakes")
//	houses, _ := db.CreateCollection("houses")
//	... lakes.Insert(shape, "Lake Tahoe") ...
//	pairs, stats, _ := db.Join(houses, lakes,
//	    spatialjoin.ReachableWithin(10, 1), spatialjoin.TreeStrategy)
//
// Lower-level building blocks (geometry, operators, cost model, z-order
// join) are exported alongside.
package spatialjoin

import (
	"context"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/zorder"
)

// Geometry types, re-exported from the geometry substrate.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (MBR).
	Rect = geom.Rect
	// Polygon is a simple polygon given as a vertex ring.
	Polygon = geom.Polygon
	// Segment is a line segment.
	Segment = geom.Segment
	// Spatial is any value with a minimum bounding rectangle.
	Spatial = geom.Spatial
)

// Pt returns the point (x, y).
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect returns the rectangle spanning two corners given in any order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// RegularPolygon returns a v-vertex regular polygon centered at c with
// circumradius r.
func RegularPolygon(c Point, r float64, v int) Polygon { return geom.RegularPolygon(c, r, v) }

// Operator is a spatial θ-operator paired with its Θ filter (Table 1 of the
// paper).
type Operator = pred.Operator

// Overlaps returns the "o₁ overlaps o₂" operator.
func Overlaps() Operator { return pred.Overlaps{} }

// WithinDistance returns "o₁ within distance d from o₂", measured between
// centerpoints.
func WithinDistance(d float64) Operator { return pred.WithinDistance{D: d} }

// DistanceBand returns "o₁ between lo and hi from o₂", measured between
// centerpoints — the paper's NO-LOC motivating operator ("between 50 and
// 100 kilometers from").
func DistanceBand(lo, hi float64) Operator { return pred.DistanceBand{Lo: lo, Hi: hi} }

// Includes returns "o₁ includes o₂".
func Includes() Operator { return pred.Includes{} }

// ContainedIn returns "o₁ contained in o₂".
func ContainedIn() Operator { return pred.ContainedIn{} }

// NorthwestOf returns "o₁ to the northwest of o₂", measured between
// centerpoints.
func NorthwestOf() Operator { return pred.NorthwestOf{} }

// ReachableWithin returns "o₁ reachable from o₂ in the given minutes" at a
// constant travel speed (coordinate units per minute).
func ReachableWithin(minutes, speed float64) Operator {
	return pred.ReachableWithin{Minutes: minutes, Speed: speed}
}

// Match is one result pair of a spatial join, identifying objects by their
// collection IDs.
type Match = core.Match

// ZOverlapJoin computes {(i, j) | rs[i] overlaps ss[j]} with Orenstein's
// z-order sort-merge algorithm — the one spatial operator for which a
// sort-merge strategy works (§2.2 of the paper) — on a single worker.
// See ZOverlapJoinCtx.
func ZOverlapJoin(rs, ss []Rect, world Rect, level uint) ([]Match, error) {
	return ZOverlapJoinCtx(context.Background(), rs, ss, world, level, 1)
}

// ZOverlapJoinCtx computes {(i, j) | rs[i] overlaps ss[j]} with Orenstein's
// z-order sort-merge algorithm. world must cover all rectangles; level sets
// the grid resolution (cells per side = 2^level). Duplicate candidate
// reports are suppressed and candidates verified exactly.
//
// With workers > 1 (≤ 0 meaning GOMAXPROCS) the world is tile-partitioned
// into vertical strips joined concurrently, with pairs straddling a strip
// boundary reported exactly once. The match set is identical for every
// worker count and is returned canonically sorted by (R, S). Cancellation
// between partition strips aborts the join with ctx.Err().
func ZOverlapJoinCtx(ctx context.Context, rs, ss []Rect, world Rect, level uint, workers int) ([]Match, error) {
	g, err := zorder.NewGrid(world, level)
	if err != nil {
		return nil, err
	}
	pairs, _, err := g.ParallelOverlapJoinCtx(ctx, rs, ss, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(pairs))
	for i, p := range pairs {
		out[i] = Match{R: p.R, S: p.S}
	}
	return out, nil
}
