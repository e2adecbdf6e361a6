package modelcheck

import (
	"context"
	"math"

	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/join"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/storage"
)

// MeasureIndexJoin stores the idealized tree's tuples twice, as R and S
// (page size s, utilization l), builds their join index under the
// synthetic operator, and retrieves the join (strategy III) through a cold
// pool of frames pages. It compares the tuple pages read
// with the ones D_III prices — D_III/C_IO less its ⌈|J|/z⌉ index pages —
// for the stored layout (M = frames, m the relation's tuples per page, z),
// and returns |J| too.
func MeasureIndexJoin(m costmodel.Model, frames, z int) (Result, int, error) {
	tree, count := IDTree(m.Prm.K, m.Prm.Nlevels)
	tuples := make([]relation.Tuple, count)
	core.Walk(tree, func(n core.Node, _ int) bool {
		id, _ := n.Tuple()
		tuples[id] = relation.Tuple{int64(id), n.Bounds()}
		return true
	})
	pool, err := storage.NewBufferPool(storage.NewDisk(int(m.Prm.S)), frames)
	if err != nil {
		return Result{}, 0, err
	}
	sch, err := relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt64},
		relation.Column{Name: "mbr", Type: relation.TypeRect},
	)
	if err != nil {
		return Result{}, 0, err
	}
	var tabs [2]join.Table
	for i, name := range []string{"r", "s"} {
		rel, err := relation.BulkLoad(pool, name, sch, tuples, relation.PlaceSequential, m.Prm.L, 0)
		if err != nil {
			return Result{}, 0, err
		}
		if tabs[i], err = join.NewTable(rel, 1, pool); err != nil {
			return Result{}, 0, err
		}
	}
	ix, _, err := join.BuildIndex(tabs[0], tabs[1], NewOp(m, 1, true), z)
	if err != nil {
		return Result{}, 0, err
	}
	if err := pool.DropAll(); err != nil {
		return Result{}, 0, err
	}
	pairs, stats, err := join.IndexJoin(context.Background(), ix, tabs[0], tabs[1])
	if err != nil {
		return Result{}, 0, err
	}
	perPage := max(tabs[0].Rel.Len()/tabs[0].Rel.NumPages(), 1)
	prm := m.Prm
	prm.M, prm.Z = float64(frames), float64(z)
	prm.V = prm.S * prm.L / float64(perPage)
	layout, err := costmodel.NewModel(prm, m.Dist, m.P)
	if err != nil {
		return Result{}, 0, err
	}
	jc := layout.JoinCosts()
	return Result{
		Predicted:   jc.DIII/prm.CIO - math.Ceil(jc.Cardinality/prm.Z),
		Measured:    float64(stats.PageReads),
		Repetitions: 1,
	}, len(pairs), nil
}
