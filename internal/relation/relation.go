package relation

import (
	"fmt"
	"math/rand"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

// Placement controls how tuples are laid out on pages when a relation is
// bulk-loaded. The paper's strategy IIb clusters tuples on the spatial
// attribute in breadth-first tree order; strategy IIa assumes no clustering
// at all (tuples randomly distributed in the file).
type Placement uint8

const (
	// PlaceSequential stores tuples in the order supplied by the caller.
	// Handing tuples over in BFS order of their generalization tree yields
	// the paper's clustered layout (IIb).
	PlaceSequential Placement = iota
	// PlaceShuffled stores tuples in a deterministic random permutation,
	// the paper's unclustered layout (IIa).
	PlaceShuffled
)

// Relation is a named collection of tuples with a fixed schema, stored in a
// heap file on the simulated disk. Tuples are addressed by a dense index
// 0..Len()-1 assigned at insert time; the physical position of a tuple is
// whatever the placement policy chose, so logical order and page order can
// differ (that difference is exactly what the IIa/IIb comparison measures).
type Relation struct {
	name   string
	schema Schema
	heap   *storage.HeapFile
	rids   []storage.RID
}

// Create makes an empty relation backed by a fresh heap file. fillFactor is
// the average page utilization l of the cost model.
func Create(pool *storage.BufferPool, name string, schema Schema, fillFactor float64) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("relation: schema has no columns")
	}
	h, err := storage.NewHeapFile(pool, fillFactor)
	if err != nil {
		return nil, err
	}
	return &Relation{name: name, schema: schema, heap: h}, nil
}

// BulkLoad creates a relation and loads tuples with the given placement.
// With PlaceShuffled, seed makes the permutation reproducible. The returned
// relation's tuple IDs are positions in the *input* slice regardless of
// placement.
func BulkLoad(pool *storage.BufferPool, name string, schema Schema,
	tuples []Tuple, placement Placement, fillFactor float64, seed int64) (*Relation, error) {

	r, err := Create(pool, name, schema, fillFactor)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(tuples))
	for i := range order {
		order[i] = i
	}
	if placement == PlaceShuffled {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	r.rids = make([]storage.RID, len(tuples))
	for _, idx := range order {
		rec, err := schema.Encode(tuples[idx])
		if err != nil {
			return nil, fmt.Errorf("relation: encoding tuple %d: %w", idx, err)
		}
		rid, err := r.heap.Append(rec)
		if err != nil {
			return nil, fmt.Errorf("relation: loading tuple %d: %w", idx, err)
		}
		r.rids[idx] = rid
	}
	return r, nil
}

// Open reattaches to a relation's existing heap file after a restart,
// reassigning tuple IDs in physical scan order. For relations grown by
// sequential Insert — the database's collections — physical order equals
// the original insertion order, so IDs are stable across restarts. The same
// scan hands visit every tuple with its new ID, in ID order, so whatever a
// caller derives from the relation (an index) is rebuilt without a second
// pass; an error from visit stops the scan and is returned.
func Open(pool *storage.BufferPool, name string, schema Schema,
	file storage.FileID, fillFactor float64, visit func(id int, t Tuple) error) (*Relation, error) {

	h, err := storage.OpenHeapFile(pool, file, fillFactor)
	if err != nil {
		return nil, err
	}
	r := &Relation{name: name, schema: schema, heap: h}
	var verr error
	if err := h.Scan(func(rid storage.RID, rec []byte) bool {
		var t Tuple
		if t, verr = schema.Decode(rec); verr == nil {
			verr = visit(len(r.rids), t)
		}
		r.rids = append(r.rids, rid)
		return verr == nil
	}); err != nil {
		return nil, err
	}
	if verr != nil {
		return nil, verr
	}
	return r, nil
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// FileID returns the id of the heap file backing the relation.
func (r *Relation) FileID() storage.FileID { return r.heap.File() }

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rids) }

// NumPages returns the number of disk pages the relation occupies.
func (r *Relation) NumPages() int { return r.heap.NumPages() }

// Insert appends a tuple and returns its tuple ID.
func (r *Relation) Insert(t Tuple) (int, error) {
	rec, err := r.schema.Encode(t)
	if err != nil {
		return 0, err
	}
	rid, err := r.heap.Append(rec)
	if err != nil {
		return 0, err
	}
	r.rids = append(r.rids, rid)
	return len(r.rids) - 1, nil
}

// Get fetches the tuple with the given ID, touching its page through the
// buffer pool.
func (r *Relation) Get(id int) (Tuple, error) {
	if id < 0 || id >= len(r.rids) {
		return nil, fmt.Errorf("relation %s: tuple id %d out of range [0,%d)", r.name, id, len(r.rids))
	}
	rec, err := r.heap.Get(r.rids[id])
	if err != nil {
		return nil, err
	}
	return r.schema.Decode(rec)
}

// RID returns the physical record id of the tuple, letting callers reason
// about page co-location.
func (r *Relation) RID(id int) (storage.RID, error) {
	if id < 0 || id >= len(r.rids) {
		return storage.RID{}, fmt.Errorf("relation %s: tuple id %d out of range", r.name, id)
	}
	return r.rids[id], nil
}

// PageOf returns the page number holding the tuple.
func (r *Relation) PageOf(id int) (int, error) {
	rid, err := r.RID(id)
	if err != nil {
		return 0, err
	}
	return int(rid.Page.Page), nil
}

// Spatial returns the spatial value of the given column of the tuple.
func (r *Relation) Spatial(id, col int) (geom.Spatial, error) {
	t, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	return r.schema.SpatialValue(t, col)
}
