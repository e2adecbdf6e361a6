package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"spatialjoin/internal/geom"
)

// Encode validates t against s and appends its compact binary record to buf,
// returning the extended buffer: a caller that passes a reused buffer's
// [:0] encodes without allocating once the buffer has grown to its records'
// size. The layout is positional per the schema, so no per-value type tags
// are needed; variable-length values are length-prefixed with uint32. A
// tuple that does not validate leaves buf as it was.
func (s Schema) Encode(buf []byte, t Tuple) ([]byte, error) {
	if err := s.Validate(t); err != nil {
		return buf, err
	}
	for i, c := range s.Columns {
		switch c.Type {
		case TypeInt64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t[i].(int64)))
		case TypeFloat64:
			buf = appendFloats(buf, t[i].(float64))
		case TypeString:
			v := t[i].(string)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
			buf = append(buf, v...)
		case TypePoint, TypeRect, TypePolygon:
			buf = appendShape(buf, t[i].(geom.Spatial))
		case TypeGeometry:
			buf = appendGeometry(buf, t[i].(geom.Spatial))
		}
	}
	return buf, nil
}

// Geometry tags for TypeGeometry values. A point, rectangle or polygon
// column stores its values untagged in the encoding of its tag (tagOf), so
// one decoder, keyed on the tag, reads both.
const (
	geomTagPoint   = 1
	geomTagRect    = 2
	geomTagPolygon = 3
	geomTagSegment = 4
)

var tagOf = [...]byte{TypePoint: geomTagPoint, TypeRect: geomTagRect, TypePolygon: geomTagPolygon}

// appendShape appends a spatial value untagged: a point's coordinates, a
// polygon's vertex count and vertices, a segment's end points, and a
// rectangle's corners. Those are the only shapes Validate admits, and no
// method of s is called, so a tuple's values do not escape through Encode.
func appendShape(buf []byte, s geom.Spatial) []byte {
	switch v := s.(type) {
	case geom.Point:
		return appendFloats(buf, v.X, v.Y)
	case geom.Polygon:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		for _, p := range v {
			buf = appendFloats(buf, p.X, p.Y)
		}
		return buf
	case geom.Segment:
		return appendFloats(buf, v.A.X, v.A.Y, v.B.X, v.B.Y)
	case geom.Rect:
		return appendFloats(buf, v.MinX, v.MinY, v.MaxX, v.MaxY)
	}
	panic(fmt.Sprintf("relation: unvalidated shape %v", reflect.TypeOf(s)))
}

// appendGeometry appends a TypeGeometry value: its tag, then the shape.
func appendGeometry(buf []byte, s geom.Spatial) []byte {
	tag := byte(geomTagRect)
	switch s.(type) {
	case geom.Point:
		tag = geomTagPoint
	case geom.Polygon:
		tag = geomTagPolygon
	case geom.Segment:
		tag = geomTagSegment
	}
	return appendShape(append(buf, tag), s)
}

// Decode deserializes a record produced by Encode.
func (s Schema) Decode(rec []byte) (Tuple, error) {
	t := make(Tuple, len(s.Columns))
	off := 0
	for i, c := range s.Columns {
		v, n, err := decodeValue(c.Type, rec[off:])
		if err != nil {
			return nil, err
		}
		t[i] = v
		off += n
	}
	if off != len(rec) {
		return nil, fmt.Errorf("relation: %d trailing bytes after decoding", len(rec)-off)
	}
	return t, nil
}

// decodeBounds checks a record as Decode does — every column's length, no
// trailing bytes — and returns the bounds of its spatial column col without
// building a Tuple: a rectangle is read in place, other shapes decoded.
func (s Schema) decodeBounds(rec []byte, col int) (b geom.Rect, err error) {
	off := 0
	for i, c := range s.Columns {
		n, err := valueLen(c.Type, rec[off:])
		if err != nil {
			return b, err
		}
		if i == col {
			if tag, hdr, _ := shapeTag(c.Type, rec[off:]); tag == geomTagRect {
				b = readRect(rec[off+hdr:])
			} else {
				v, _, _ := decodeShape(c.Type, rec[off:], nil)
				b = v.Bounds()
			}
		}
		off += n
	}
	if off != len(rec) {
		return b, fmt.Errorf("relation: %d trailing bytes after decoding", len(rec)-off)
	}
	return b, nil
}

// decodeSpatial decodes only the spatial column col of a record produced by
// Encode: the columns before it are skipped by their lengths, the ones
// after it are not read, and no Tuple is built. A rectangle is stored in
// *dst and returned as dst, so reading one allocates nothing; every other
// value is copied out of rec. With dst nil the caller discards the value:
// the column is only checked to be whole, and nil is returned.
func (s Schema) decodeSpatial(rec []byte, col int, dst *geom.Rect) (geom.Spatial, error) {
	if col < 0 || col >= len(s.Columns) {
		return nil, fmt.Errorf("relation: column %d out of range", col)
	}
	if !s.Columns[col].Type.Spatial() {
		return nil, fmt.Errorf("relation: column %q is not spatial", s.Columns[col].Name)
	}
	off := 0
	for _, c := range s.Columns[:col] {
		n, err := valueLen(c.Type, rec[off:])
		if err != nil {
			return nil, err
		}
		off += n
	}
	if dst == nil {
		_, err := valueLen(s.Columns[col].Type, rec[off:])
		return nil, err
	}
	v, _, err := decodeShape(s.Columns[col].Type, rec[off:], dst)
	return v, err
}

// valueLen returns the length of the encoded value of type typ at the front
// of rec, or an error when rec is too short to hold it or a geometry tag is
// unknown.
func valueLen(typ Type, rec []byte) (int, error) {
	switch typ {
	case TypeInt64, TypeFloat64:
		return fits(8, rec)
	case TypeString:
		return prefixed(1, rec)
	}
	tag, hdr, err := shapeTag(typ, rec)
	if err != nil {
		return 0, err
	}
	n, err := shapeLen(tag, rec[hdr:])
	return hdr + n, err
}

// shapeTag returns the geometry tag of the spatial value of type typ at the
// front of rec and how many bytes hold it: a TypeGeometry value's own tag,
// or for a point, rectangle or polygon column the tag it is encoded as,
// stored nowhere.
func shapeTag(typ Type, rec []byte) (tag byte, n int, err error) {
	switch typ {
	case TypePoint, TypeRect, TypePolygon:
		return tagOf[typ], 0, nil
	case TypeGeometry:
		if len(rec) < 1 || rec[0] < geomTagPoint || rec[0] > geomTagSegment {
			return 0, 0, fmt.Errorf("relation: missing or unknown geometry tag")
		}
		return rec[0], 1, nil
	}
	return 0, 0, fmt.Errorf("relation: unknown column type %d", typ)
}

// shapeLen returns the length of the untagged shape of geometry tag tag at
// the front of rec.
func shapeLen(tag byte, rec []byte) (int, error) {
	switch tag {
	case geomTagPoint:
		return fits(16, rec)
	case geomTagPolygon:
		return prefixed(16, rec)
	}
	return fits(32, rec) // a rectangle's corners or a segment's end points
}

// prefixed returns the length of a uint32 count and that many unit-byte
// elements at the front of rec.
func prefixed(unit int, rec []byte) (int, error) {
	if len(rec) < 4 {
		return 0, fmt.Errorf("relation: truncated length prefix")
	}
	return fits(4+unit*int(binary.LittleEndian.Uint32(rec)), rec)
}

// fits returns n, or an error when rec is shorter than n bytes.
func fits(n int, rec []byte) (int, error) {
	if n > len(rec) {
		return 0, fmt.Errorf("relation: truncated record (need %d bytes of %d)", n, len(rec))
	}
	return n, nil
}

// decodeValue decodes the value of type typ at the front of rec and returns
// it with its encoded length.
func decodeValue(typ Type, rec []byte) (any, int, error) {
	if typ.Spatial() {
		return decodeShape(typ, rec, nil)
	}
	n, err := valueLen(typ, rec)
	if err != nil {
		return nil, 0, err
	}
	switch typ {
	case TypeInt64:
		return int64(binary.LittleEndian.Uint64(rec)), n, nil
	case TypeFloat64:
		return readFloat(rec), n, nil
	default: // TypeString
		return string(rec[4:n]), n, nil
	}
}

// decodeShape decodes the value of spatial column type typ at the front of
// rec and returns it with its encoded length. With dst non-nil a rectangle
// is stored in *dst and returned as dst.
func decodeShape(typ Type, rec []byte, dst *geom.Rect) (geom.Spatial, int, error) {
	tag, hdr, err := shapeTag(typ, rec)
	if err != nil {
		return nil, 0, err
	}
	rec = rec[hdr:]
	n, err := shapeLen(tag, rec)
	if err != nil {
		return nil, 0, err
	}
	switch tag {
	case geomTagPoint:
		return readPoint(rec), hdr + n, nil
	case geomTagRect:
		r := readRect(rec)
		if dst == nil {
			return r, hdr + n, nil
		}
		*dst = r
		return dst, hdr + n, nil
	case geomTagPolygon:
		pg := make(geom.Polygon, (n-4)/16)
		for j := range pg {
			pg[j] = readPoint(rec[4+16*j:])
		}
		return pg, hdr + n, nil
	default: // geomTagSegment
		return geom.Segment{A: readPoint(rec), B: readPoint(rec[16:])}, hdr + n, nil
	}
}

func readRect(b []byte) geom.Rect {
	return geom.Rect{MinX: readFloat(b), MinY: readFloat(b[8:]), MaxX: readFloat(b[16:]), MaxY: readFloat(b[24:])}
}

func readPoint(b []byte) geom.Point {
	return geom.Point{X: readFloat(b), Y: readFloat(b[8:])}
}

func appendFloats(buf []byte, fs ...float64) []byte {
	for _, f := range fs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

func readFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
