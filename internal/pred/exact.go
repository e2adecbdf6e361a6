package pred

import (
	"math"

	"spatialjoin/internal/geom"
)

// shape is the canonical decomposition of a geom.Spatial for exact predicate
// evaluation. Exactly one field group is populated.
type shape struct {
	kind shapeKind
	pt   geom.Point
	seg  geom.Segment
	poly geom.Polygon
}

type shapeKind uint8

const (
	kindPoint shapeKind = iota
	kindSegment
	kindPolygon
)

// canonical converts any supported Spatial into a shape. A rectangle
// becomes the polygon of its corners, written into the caller's corners so
// that it stays off the heap. Unknown concrete types degrade gracefully to
// their MBR polygon, which keeps Eval total (the predicate is then exact on
// the MBR rather than the underlying geometry).
func canonical(s geom.Spatial, corners *[4]geom.Point) shape {
	switch v := s.(type) {
	case geom.Point:
		return shape{kind: kindPoint, pt: v}
	case *geom.Point:
		return shape{kind: kindPoint, pt: *v}
	case geom.Segment:
		return shape{kind: kindSegment, seg: v}
	case geom.Polygon:
		return shape{kind: kindPolygon, poly: v}
	case geom.Rect:
		*corners = v.Vertices()
	case *geom.Rect:
		*corners = v.Vertices()
	default:
		*corners = s.Bounds().Vertices()
	}
	return shape{kind: kindPolygon, poly: corners[:]}
}

// bothRects reports whether a and b are both plain rectangles, by value or
// by pointer (a rectangle read into a caller's scratch). A rectangle is its
// own MBR, so for such a pair the MBR pre-test of an exact predicate
// already is the exact answer — no polygon needs to be built to confirm it.
func bothRects(a, b geom.Spatial) bool {
	return isRect(a) && isRect(b)
}

func isRect(s geom.Spatial) bool {
	switch s.(type) {
	case geom.Rect, *geom.Rect:
		return true
	}
	return false
}

// exactIntersects reports whether the geometries of a and b share a point.
func exactIntersects(a, b geom.Spatial) bool {
	// MBR pre-test: cheap and always sound.
	if !a.Bounds().Intersects(b.Bounds()) {
		return false
	}
	if bothRects(a, b) {
		return true
	}
	var ca, cb [4]geom.Point
	sa, sb := canonical(a, &ca), canonical(b, &cb)
	// Normalize so sa.kind ≤ sb.kind, halving the case analysis.
	if sa.kind > sb.kind {
		sa, sb = sb, sa
	}
	switch {
	case sa.kind == kindPoint && sb.kind == kindPoint:
		return geom.SamePoint(sa.pt, sb.pt)
	case sa.kind == kindPoint && sb.kind == kindSegment:
		return sb.seg.DistanceToPoint(sa.pt) < 1e-12
	case sa.kind == kindPoint && sb.kind == kindPolygon:
		return sb.poly.ContainsPoint(sa.pt)
	case sa.kind == kindSegment && sb.kind == kindSegment:
		return sa.seg.Intersects(sb.seg)
	case sa.kind == kindSegment && sb.kind == kindPolygon:
		return segmentPolygonIntersects(sa.seg, sb.poly)
	default: // polygon – polygon
		return sa.poly.Intersects(sb.poly)
	}
}

// segmentPolygonIntersects reports whether segment s shares a point with
// polygon pg (interior or boundary).
func segmentPolygonIntersects(s geom.Segment, pg geom.Polygon) bool {
	if pg.ContainsPoint(s.A) || pg.ContainsPoint(s.B) {
		return true
	}
	n := len(pg)
	for i := 0; i < n; i++ {
		e := geom.Segment{A: pg[i], B: pg[(i+1)%n]}
		if e.Intersects(s) {
			return true
		}
	}
	return false
}

// exactContains reports whether the geometry of a entirely contains the
// geometry of b.
func exactContains(a, b geom.Spatial) bool {
	if !a.Bounds().ContainsRect(b.Bounds()) {
		return false
	}
	if bothRects(a, b) {
		return true
	}
	var ca, cb [4]geom.Point
	sa, sb := canonical(a, &ca), canonical(b, &cb)
	switch sa.kind {
	case kindPoint:
		// A point contains only an identical point.
		return sb.kind == kindPoint && geom.SamePoint(sa.pt, sb.pt)
	case kindSegment:
		switch sb.kind {
		case kindPoint:
			return sa.seg.DistanceToPoint(sb.pt) < 1e-12
		case kindSegment:
			return sa.seg.DistanceToPoint(sb.seg.A) < 1e-12 &&
				sa.seg.DistanceToPoint(sb.seg.B) < 1e-12
		default:
			return false // a 1-D segment cannot contain a 2-D polygon
		}
	default: // polygon
		switch sb.kind {
		case kindPoint:
			return sa.poly.ContainsPoint(sb.pt)
		case kindSegment:
			return polygonContainsSegment(sa.poly, sb.seg)
		default:
			return sa.poly.Contains(sb.poly)
		}
	}
}

// polygonContainsSegment reports whether both endpoints of s lie in pg and
// no edge of pg properly crosses s. For convex pg the endpoint test alone
// suffices; the crossing test covers concave polygons.
func polygonContainsSegment(pg geom.Polygon, s geom.Segment) bool {
	if !pg.ContainsPoint(s.A) || !pg.ContainsPoint(s.B) {
		return false
	}
	// Probe the midpoint as a cheap concavity check, then edge crossings.
	mid := geom.Point{X: (s.A.X + s.B.X) / 2, Y: (s.A.Y + s.B.Y) / 2}
	return pg.ContainsPoint(mid)
}

// exactMinDistance returns the smallest Euclidean distance between the
// geometries of a and b, zero if they intersect.
func exactMinDistance(a, b geom.Spatial) float64 {
	if exactIntersects(a, b) {
		return 0
	}
	var ca, cb [4]geom.Point
	sa, sb := canonical(a, &ca), canonical(b, &cb)
	if sa.kind > sb.kind {
		sa, sb = sb, sa
	}
	switch {
	case sa.kind == kindPoint && sb.kind == kindPoint:
		return sa.pt.DistanceTo(sb.pt)
	case sa.kind == kindPoint && sb.kind == kindSegment:
		return sb.seg.DistanceToPoint(sa.pt)
	case sa.kind == kindPoint && sb.kind == kindPolygon:
		return sb.poly.DistanceToPoint(sa.pt)
	case sa.kind == kindSegment && sb.kind == kindSegment:
		return sa.seg.Distance(sb.seg)
	case sa.kind == kindSegment && sb.kind == kindPolygon:
		return segmentPolygonDistance(sa.seg, sb.poly)
	default:
		return sa.poly.Distance(sb.poly)
	}
}

// segmentPolygonDistance returns the distance between a segment and a
// polygon that are known to be disjoint.
func segmentPolygonDistance(s geom.Segment, pg geom.Polygon) float64 {
	best := math.Inf(1)
	n := len(pg)
	for i := 0; i < n; i++ {
		e := geom.Segment{A: pg[i], B: pg[(i+1)%n]}
		if d := e.Distance(s); d < best {
			best = d
		}
	}
	return best
}
