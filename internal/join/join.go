// Package join provides the executable spatial-join strategies, the
// measured counterparts of the paper's cost model: blocked nested loop
// (strategy I), generalization-tree SELECT and JOIN with page charging
// (strategies IIa/IIb, depending on how the underlying relation was laid
// out), and the precomputed join index (strategy III). Every strategy runs
// against relations stored on the simulated disk of internal/storage, so
// its page I/O and predicate evaluations can be measured and compared with
// the analytical formulas of internal/costmodel.
package join

import (
	"fmt"
	"sync"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/storage"
)

// Stats is the measured work of one strategy execution, in the units the
// cost model weights: Θ filter evaluations and exact θ evaluations (C_Θ
// each in the model's simplification S3), physical page reads (C_IO each),
// and join-index page reads for strategy III. PageReads are the misses
// this query's own fetches caused, whatever else runs on the pool.
// Downgrades counts strategy fallbacks the executor performed after a
// permanent storage fault — zero on a healthy device.
type Stats struct {
	FilterEvals int64
	ExactEvals  int64
	PageReads   int64
	IndexReads  int64
	Downgrades  int64
}

// Cost collapses the stats into the model's time units.
func (s Stats) Cost(cTheta, cIO float64) float64 {
	return cTheta*float64(s.FilterEvals+s.ExactEvals) +
		cIO*float64(s.PageReads+s.IndexReads)
}

// Add returns the component-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		FilterEvals: s.FilterEvals + o.FilterEvals,
		ExactEvals:  s.ExactEvals + o.ExactEvals,
		PageReads:   s.PageReads + o.PageReads,
		IndexReads:  s.IndexReads + o.IndexReads,
		Downgrades:  s.Downgrades + o.Downgrades,
	}
}

// Table couples a stored relation with its spatial join column and the
// buffer pool that serves its pages.
type Table struct {
	Rel  *relation.Relation
	Col  int
	Pool *storage.BufferPool
}

// NewTable validates that col is a spatial column of rel.
func NewTable(rel *relation.Relation, col int, pool *storage.BufferPool) (Table, error) {
	sch := rel.Schema()
	if col < 0 || col >= len(sch.Columns) {
		return Table{}, fmt.Errorf("join: column %d out of range for %s", col, rel.Name())
	}
	if !sch.Columns[col].Type.Spatial() {
		return Table{}, fmt.Errorf("join: column %q of %s is not spatial", sch.Columns[col].Name, rel.Name())
	}
	if pool == nil {
		return Table{}, fmt.Errorf("join: nil buffer pool")
	}
	return Table{Rel: rel, Col: col, Pool: pool}, nil
}

// read decodes the tuple's spatial value from its heap page, one pool
// access that charges a miss to reads, the query's account. A rectangle
// lands in dst; with dst nil, where the caller discards the value, the
// record is only checked (see relation.Relation.Spatial). Every strategy
// reads its tuples here, so the I/O it is charged is the read that
// produced its θ operands.
func (t Table) read(id int, reads *obs.Counter, dst *geom.Rect) (geom.Spatial, error) {
	return t.Rel.Spatial(id, t.Col, reads, dst)
}

// Reader returns the core.Reader for a generalization tree whose tuple IDs
// are t's, charging its misses to reads: a tuple-bearing node is read
// through read, a technical one is not read at all.
func (t Table) Reader(reads *obs.Counter) core.Reader {
	return func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
		return t.readNode(n, reads, dst)
	}
}

// readNode is what t's readers do: read a tuple-bearing node's tuple, and
// nothing for a technical node.
func (t Table) readNode(n core.Node, reads *obs.Counter, dst *geom.Rect) (geom.Spatial, error) {
	id, ok := n.Tuple()
	if !ok {
		return nil, nil
	}
	return t.read(id, reads, dst)
}

// account is one query's read account and the readers that charge it, for
// its R and S tables. The core algorithms copy their options into pooled
// scratch and call the context's and the trace's methods through them, so
// whatever the options point to escapes, readers included: a reader closure
// built per query, and the account it captures, would be two allocations a
// query. An account comes from a pool, and its readers are built once, when
// the pool makes it, to read whichever tables the query set.
type account struct {
	reads        obs.Counter
	r, s         Table
	readR, readS core.Reader
}

var accounts = sync.Pool{New: func() any {
	a := new(account)
	a.readR = func(n core.Node, dst *geom.Rect) (geom.Spatial, error) { return a.r.readNode(n, &a.reads, dst) }
	a.readS = func(n core.Node, dst *geom.Rect) (geom.Spatial, error) { return a.s.readNode(n, &a.reads, dst) }
	return a
}}

// openAccount returns a zeroed account reading r and s.
func openAccount(r, s Table) *account {
	a := accounts.Get().(*account)
	a.r, a.s = r, s
	return a
}

// close returns the account to the pool, keeping no table alive.
func (a *account) close() {
	a.r, a.s = Table{}, Table{}
	a.reads = obs.Counter{}
	accounts.Put(a)
}
