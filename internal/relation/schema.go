// Package relation provides the minimal extended-relational layer the paper
// assumes (§1: "a relational data model that is extended by spatial data
// types and operators", in the spirit of POSTGRES/DASDBS): schemas whose
// columns may hold spatial values, tuples encoded into slotted pages, and
// relations backed by the simulated disk of internal/storage.
package relation

import (
	"fmt"
	"reflect"

	"spatialjoin/internal/geom"
)

// Type enumerates the column types the layer supports.
type Type uint8

// Supported column types. The spatial types carry geom values.
const (
	TypeInt64 Type = iota + 1
	TypeFloat64
	TypeString
	TypePoint
	TypeRect
	TypePolygon
	// TypeGeometry stores any geom.Spatial value (point, rect, polygon or
	// segment) with a per-value type tag, for relations whose objects mix
	// shapes — e.g. a cartographic layer of point cities and polygon lakes.
	TypeGeometry
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	case TypePoint:
		return "point"
	case TypeRect:
		return "rect"
	case TypePolygon:
		return "polygon"
	case TypeGeometry:
		return "geometry"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Spatial reports whether the type holds a spatial value.
func (t Type) Spatial() bool {
	return t == TypePoint || t == TypeRect || t == TypePolygon || t == TypeGeometry
}

// Column is one attribute of a schema.
type Column struct {
	Name string
	Type Type
}

// Schema describes the attributes of a relation.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from (name, type) pairs and validates it:
// non-empty, unique names, known types.
func NewSchema(cols ...Column) (Schema, error) {
	if len(cols) == 0 {
		return Schema{}, fmt.Errorf("relation: schema needs at least one column")
	}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return Schema{}, fmt.Errorf("relation: empty column name")
		}
		if seen[c.Name] {
			return Schema{}, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		if c.Type < TypeInt64 || c.Type > TypeGeometry {
			return Schema{}, fmt.Errorf("relation: column %q has unknown type %d", c.Name, c.Type)
		}
	}
	return Schema{Columns: cols}, nil
}

// ColumnIndex returns the position of the named column.
func (s Schema) ColumnIndex(name string) (int, bool) {
	for i, c := range s.Columns {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// SpatialColumn returns the index of the first spatial column, which most
// single-index relations use as their indexed attribute.
func (s Schema) SpatialColumn() (int, bool) {
	for i, c := range s.Columns {
		if c.Type.Spatial() {
			return i, true
		}
	}
	return 0, false
}

// Tuple is one row; values align positionally with the schema's columns.
// Value kinds by column type: int64, float64, string, geom.Point, geom.Rect,
// geom.Polygon.
type Tuple []any

// Validate checks t against the schema.
func (s Schema) Validate(t Tuple) error {
	if len(t) != len(s.Columns) {
		return fmt.Errorf("relation: tuple has %d values, schema has %d columns", len(t), len(s.Columns))
	}
	for i, c := range s.Columns {
		ok := false
		switch c.Type {
		case TypeInt64:
			_, ok = t[i].(int64)
		case TypeFloat64:
			_, ok = t[i].(float64)
		case TypeString:
			_, ok = t[i].(string)
		case TypePoint:
			_, ok = t[i].(geom.Point)
		case TypeRect:
			_, ok = t[i].(geom.Rect)
		case TypePolygon:
			_, ok = t[i].(geom.Polygon)
		case TypeGeometry:
			switch t[i].(type) {
			case geom.Point, geom.Rect, geom.Polygon, geom.Segment:
				ok = true
			}
		}
		if !ok {
			// The value's type, not the value: t's values do not escape.
			return fmt.Errorf("relation: column %q wants %s, got %v", c.Name, c.Type, reflect.TypeOf(t[i]))
		}
	}
	return nil
}
