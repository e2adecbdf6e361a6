package relation

import (
	"encoding/binary"
	"fmt"
	"math"

	"spatialjoin/internal/geom"
)

// Encode serializes t (which must validate against s) into a compact binary
// record. The layout is positional per the schema, so no per-value type tags
// are needed; variable-length values are length-prefixed with uint32.
func (s Schema) Encode(t Tuple) ([]byte, error) {
	if err := s.Validate(t); err != nil {
		return nil, err
	}
	var buf []byte
	for i, c := range s.Columns {
		switch c.Type {
		case TypeInt64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t[i].(int64)))
		case TypeFloat64:
			buf = appendFloat(buf, t[i].(float64))
		case TypeString:
			v := t[i].(string)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
			buf = append(buf, v...)
		case TypePoint:
			p := t[i].(geom.Point)
			buf = appendFloat(buf, p.X)
			buf = appendFloat(buf, p.Y)
		case TypeRect:
			r := t[i].(geom.Rect)
			buf = appendFloat(buf, r.MinX)
			buf = appendFloat(buf, r.MinY)
			buf = appendFloat(buf, r.MaxX)
			buf = appendFloat(buf, r.MaxY)
		case TypePolygon:
			buf = appendPolygon(buf, t[i].(geom.Polygon))
		case TypeGeometry:
			buf = appendGeometry(buf, t[i].(geom.Spatial))
		}
	}
	return buf, nil
}

// Geometry tags for TypeGeometry values.
const (
	geomTagPoint   = 1
	geomTagRect    = 2
	geomTagPolygon = 3
	geomTagSegment = 4
)

func appendPolygon(buf []byte, pg geom.Polygon) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pg)))
	for _, p := range pg {
		buf = appendFloat(buf, p.X)
		buf = appendFloat(buf, p.Y)
	}
	return buf
}

func appendGeometry(buf []byte, s geom.Spatial) []byte {
	switch v := s.(type) {
	case geom.Point:
		buf = append(buf, geomTagPoint)
		buf = appendFloat(buf, v.X)
		return appendFloat(buf, v.Y)
	case geom.Rect:
		buf = append(buf, geomTagRect)
		buf = appendFloat(buf, v.MinX)
		buf = appendFloat(buf, v.MinY)
		buf = appendFloat(buf, v.MaxX)
		return appendFloat(buf, v.MaxY)
	case geom.Polygon:
		buf = append(buf, geomTagPolygon)
		return appendPolygon(buf, v)
	case geom.Segment:
		buf = append(buf, geomTagSegment)
		buf = appendFloat(buf, v.A.X)
		buf = appendFloat(buf, v.A.Y)
		buf = appendFloat(buf, v.B.X)
		return appendFloat(buf, v.B.Y)
	default:
		// Validate guarantees one of the cases above; keep Encode total by
		// degrading unknown implementations to their MBR.
		buf = append(buf, geomTagRect)
		r := s.Bounds()
		buf = appendFloat(buf, r.MinX)
		buf = appendFloat(buf, r.MinY)
		buf = appendFloat(buf, r.MaxX)
		return appendFloat(buf, r.MaxY)
	}
}

// Decode deserializes a record produced by Encode.
func (s Schema) Decode(rec []byte) (Tuple, error) {
	t := make(Tuple, len(s.Columns))
	off := 0
	need := func(n int) error {
		if off+n > len(rec) {
			return fmt.Errorf("relation: truncated record (need %d bytes at offset %d of %d)", n, off, len(rec))
		}
		return nil
	}
	for i, c := range s.Columns {
		switch c.Type {
		case TypeInt64:
			if err := need(8); err != nil {
				return nil, err
			}
			t[i] = int64(binary.LittleEndian.Uint64(rec[off:]))
			off += 8
		case TypeFloat64:
			if err := need(8); err != nil {
				return nil, err
			}
			t[i] = readFloat(rec[off:])
			off += 8
		case TypeString:
			if err := need(4); err != nil {
				return nil, err
			}
			n := int(binary.LittleEndian.Uint32(rec[off:]))
			off += 4
			if err := need(n); err != nil {
				return nil, err
			}
			t[i] = string(rec[off : off+n])
			off += n
		case TypePoint:
			if err := need(16); err != nil {
				return nil, err
			}
			t[i] = geom.Point{X: readFloat(rec[off:]), Y: readFloat(rec[off+8:])}
			off += 16
		case TypeRect:
			if err := need(32); err != nil {
				return nil, err
			}
			t[i] = geom.Rect{
				MinX: readFloat(rec[off:]),
				MinY: readFloat(rec[off+8:]),
				MaxX: readFloat(rec[off+16:]),
				MaxY: readFloat(rec[off+24:]),
			}
			off += 32
		case TypePolygon:
			pg, n, err := decodePolygon(rec[off:])
			if err != nil {
				return nil, err
			}
			t[i] = pg
			off += n
		case TypeGeometry:
			v, n, err := decodeGeometry(rec[off:])
			if err != nil {
				return nil, err
			}
			t[i] = v
			off += n
		}
	}
	if off != len(rec) {
		return nil, fmt.Errorf("relation: %d trailing bytes after decoding", len(rec)-off)
	}
	return t, nil
}

// decodePolygon reads a length-prefixed polygon, returning it and the bytes
// consumed.
func decodePolygon(rec []byte) (geom.Polygon, int, error) {
	if len(rec) < 4 {
		return nil, 0, fmt.Errorf("relation: truncated polygon header")
	}
	n := int(binary.LittleEndian.Uint32(rec))
	off := 4
	if len(rec) < off+16*n {
		return nil, 0, fmt.Errorf("relation: truncated polygon body (%d vertices)", n)
	}
	pg := make(geom.Polygon, n)
	for j := 0; j < n; j++ {
		pg[j] = geom.Point{X: readFloat(rec[off:]), Y: readFloat(rec[off+8:])}
		off += 16
	}
	return pg, off, nil
}

// decodeGeometry reads a tagged geometry value, returning it and the bytes
// consumed.
func decodeGeometry(rec []byte) (geom.Spatial, int, error) {
	if len(rec) < 1 {
		return nil, 0, fmt.Errorf("relation: truncated geometry tag")
	}
	tag := rec[0]
	body := rec[1:]
	switch tag {
	case geomTagPoint:
		if len(body) < 16 {
			return nil, 0, fmt.Errorf("relation: truncated point")
		}
		return geom.Point{X: readFloat(body), Y: readFloat(body[8:])}, 17, nil
	case geomTagRect:
		if len(body) < 32 {
			return nil, 0, fmt.Errorf("relation: truncated rect")
		}
		return geom.Rect{
			MinX: readFloat(body), MinY: readFloat(body[8:]),
			MaxX: readFloat(body[16:]), MaxY: readFloat(body[24:]),
		}, 33, nil
	case geomTagPolygon:
		pg, n, err := decodePolygon(body)
		if err != nil {
			return nil, 0, err
		}
		return pg, 1 + n, nil
	case geomTagSegment:
		if len(body) < 32 {
			return nil, 0, fmt.Errorf("relation: truncated segment")
		}
		return geom.Segment{
			A: geom.Point{X: readFloat(body), Y: readFloat(body[8:])},
			B: geom.Point{X: readFloat(body[16:]), Y: readFloat(body[24:])},
		}, 33, nil
	default:
		return nil, 0, fmt.Errorf("relation: unknown geometry tag %d", tag)
	}
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func readFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// EncodeGeometry appends the canonical tagged encoding of s — the same
// bytes a TypeGeometry column stores inside heap tuples.
func EncodeGeometry(buf []byte, s geom.Spatial) []byte {
	return appendGeometry(buf, s)
}
