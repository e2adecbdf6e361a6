// Package geom provides the planar geometry substrate used throughout the
// spatial-join library: points, axis-aligned rectangles (minimum bounding
// rectangles, MBRs), line segments and simple polygons, together with the
// predicates and constructions the θ/Θ-operators of Günther's spatial-join
// framework are built from.
//
// All coordinates are float64 in an arbitrary Cartesian plane. Distances are
// Euclidean. The package is purely computational and allocation-light; it has
// no dependency on the storage or index layers.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// DistanceTo returns the Euclidean distance between p and q.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p with both coordinates multiplied by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// NorthwestOf reports whether p lies strictly to the northwest of q,
// i.e. strictly smaller X (west) and strictly larger Y (north). This is the
// centerpoint semantics of the paper's "to the Northwest of" θ-operator.
func (p Point) NorthwestOf(q Point) bool { return p.X < q.X && p.Y > q.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, the MBR type of the library. A Rect is
// valid when MinX ≤ MaxX and MinY ≤ MaxY; degenerate rectangles (zero width
// or height) are valid and represent segments or points.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{
		MinX: min(x1, x2),
		MinY: min(y1, y2),
		MaxX: max(x1, x2),
		MaxY: max(y1, y2),
	}
}

// RectFromPoints returns the MBR of the given points. It panics if no points
// are supplied, since an empty MBR has no meaningful representation.
func RectFromPoints(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints requires at least one point")
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect { return Rect{p.X, p.Y, p.X, p.Y} }

// Valid reports whether r is a well-formed rectangle.
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY &&
		!math.IsNaN(r.MinX) && !math.IsNaN(r.MinY) &&
		!math.IsNaN(r.MaxX) && !math.IsNaN(r.MaxY)
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns the half-perimeter of r, used by some R-tree split
// heuristics.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the centerpoint of r. The paper's centerpoint-based
// operators (NorthwestOf, WithinDistance) use this as the object's
// representative point.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether o lies entirely inside r (boundary
// inclusive).
func (r Rect) ContainsRect(o Rect) bool {
	return o.MinX >= r.MinX && o.MaxX <= r.MaxX &&
		o.MinY >= r.MinY && o.MaxY <= r.MaxY
}

// Intersects reports whether r and o share at least one point (boundary
// touching counts as intersection, matching the paper's "overlaps" filter
// semantics for MBRs).
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX &&
		r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Intersection returns the common region of r and o. ok is false when the
// rectangles are disjoint.
func (r Rect) Intersection(o Rect) (out Rect, ok bool) {
	if !r.Intersects(o) {
		return Rect{}, false
	}
	return Rect{
		MinX: max(r.MinX, o.MinX),
		MinY: max(r.MinY, o.MinY),
		MaxX: min(r.MaxX, o.MaxX),
		MaxY: min(r.MaxY, o.MaxY),
	}, true
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinX: min(r.MinX, o.MinX),
		MinY: min(r.MinY, o.MinY),
		MaxX: max(r.MaxX, o.MaxX),
		MaxY: max(r.MaxY, o.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle covering both r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		MinX: min(r.MinX, p.X),
		MinY: min(r.MinY, p.Y),
		MaxX: max(r.MaxX, p.X),
		MaxY: max(r.MaxY, p.Y),
	}
}

// Expand returns r grown by d on every side: the Minkowski sum of r with a
// square of half-width d. It is the rectangular buffer used by the
// within-distance and reachability Θ-filters; for d < 0 it shrinks r (the
// result may become invalid).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// Enlargement returns the increase in area needed for r to cover o. It is
// the quantity minimized by Guttman's ChooseLeaf.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Union(o).Area() - r.Area()
}

// MinDistance returns the smallest Euclidean distance between any point of r
// and any point of o ("measured between closest points"). It is zero when
// the rectangles intersect.
func (r Rect) MinDistance(o Rect) float64 {
	dx := axisGap(r.MinX, r.MaxX, o.MinX, o.MaxX)
	dy := axisGap(r.MinY, r.MaxY, o.MinY, o.MaxY)
	return math.Hypot(dx, dy)
}

// MaxDistance returns the largest Euclidean distance between any point of r
// and any point of o — realized by a pair of opposite corners. Together
// with MinDistance it brackets every point-pair distance between the two
// regions, which distance-band filters rely on.
func (r Rect) MaxDistance(o Rect) float64 {
	dx := max(o.MaxX-r.MinX, r.MaxX-o.MinX)
	dy := max(o.MaxY-r.MinY, r.MaxY-o.MinY)
	return math.Hypot(dx, dy)
}

// MinDistanceToPoint returns the smallest distance from any point of r to p.
func (r Rect) MinDistanceToPoint(p Point) float64 {
	dx := axisGap(r.MinX, r.MaxX, p.X, p.X)
	dy := axisGap(r.MinY, r.MaxY, p.Y, p.Y)
	return math.Hypot(dx, dy)
}

// axisGap returns the gap between intervals [a1,a2] and [b1,b2] on one axis,
// zero if they overlap.
func axisGap(a1, a2, b1, b2 float64) float64 {
	switch {
	case b1 > a2:
		return b1 - a2
	case a1 > b2:
		return a1 - b2
	default:
		return 0
	}
}

// NorthwestQuadrant returns the (half-open, unbounded) region to the
// northwest of r as used by the paper's Θ-filter for "to the Northwest of"
// (Figure 5): the quadrant formed by the right vertical tangent (x = MaxX)
// and the lower horizontal tangent (y = MinY) of r. Any object whose MBR
// misses this region cannot contain a subobject whose centerpoint is
// northwest of a centerpoint inside r.
func (r Rect) NorthwestQuadrant() Rect {
	return Rect{
		MinX: math.Inf(-1),
		MinY: r.MinY,
		MaxX: r.MaxX,
		MaxY: math.Inf(1),
	}
}

// Vertices returns the four corners of r in counterclockwise order starting
// at (MinX, MinY).
func (r Rect) Vertices() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// ToPolygon converts r to a four-vertex polygon.
func (r Rect) ToPolygon() Polygon {
	v := r.Vertices()
	return Polygon{v[0], v[1], v[2], v[3]}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Bounds implements Spatial; a rectangle is its own MBR.
func (r Rect) Bounds() Rect { return r }

// Spatial is the minimal view the index and operator layers need of a
// spatial value: its minimum bounding rectangle. The representative
// centerpoint of a Spatial is Bounds().Center() unless the concrete type
// also implements Centered.
type Spatial interface {
	Bounds() Rect
}

// Centered is implemented by spatial values that carry an explicit
// centerpoint (the paper notes cartographic applications often define one by
// hand, distinct from the center of gravity).
type Centered interface {
	Centerpoint() Point
}

// CenterOf returns the representative centerpoint of s: the explicit
// centerpoint when s implements Centered, the MBR center otherwise.
func CenterOf(s Spatial) Point {
	if c, ok := s.(Centered); ok {
		return c.Centerpoint()
	}
	return s.Bounds().Center()
}

// Bounds implements Spatial for a bare point.
func (p Point) Bounds() Rect { return PointRect(p) }
