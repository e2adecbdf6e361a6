package main

// The -wal path runs the workload through the Database API with a
// write-ahead log: every insert is a crash-consistent transaction, and the
// -crash-at / -recover flags drive the injected-crash → reboot → recover
// cycle from the command line, printing the recovery ledger the harness
// tests assert on.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"text/tabwriter"

	spatialjoin "spatialjoin"
	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/geom"
)

// walRects generates the workload rectangles: the tuple-level MBRs of one
// model generalization tree.
func walRects(seed int64, k, height int) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	world := geom.NewRect(0, 0, 1000, 1000)
	tree, n := datagen.ModelTree(rng, world, k, height)
	rects := make([]geom.Rect, n)
	core.Walk(tree, func(nd core.Node, _ int) bool {
		if id, ok := nd.Tuple(); ok {
			rects[id] = nd.Bounds()
		}
		return true
	})
	return rects
}

// walOptions bundles the -wal path's flag values.
type walOptions struct {
	k, height    int
	op, strategy string
	buffer       int
	seed         int64
	faultSeed    int64
	group        int
	crashAt      int64
	doRecover    bool
	// ckptEvery takes a truncating fuzzy checkpoint after every N inserts
	// (0 = never).
	ckptEvery int
	// exportPath writes a snapshot of the final state to this file.
	exportPath string
	// seedPath seeds the database from a snapshot file instead of running
	// the generated workload.
	seedPath string
}

// runWAL executes the join workload on a WAL-enabled Database — or seeds
// one from a snapshot — optionally checkpointing during the load, crashing
// it mid-load (-crash-at) and recovering (-recover or after a crash), then
// reports per-strategy results plus the WAL, checkpoint, and recovery
// ledgers, and optionally exports a snapshot of the final state.
func runWAL(out io.Writer, o walOptions) (err error) {
	op, err := parseOp(o.op)
	if err != nil {
		return err
	}
	want := func(name string) bool { return o.strategy == "all" || o.strategy == name }
	if !want("tree") && !want("scan") && !want("index") {
		return fmt.Errorf("unknown strategy %q", o.strategy)
	}

	cfg := spatialjoin.DefaultConfig()
	cfg.BufferPages = o.buffer
	cfg.Workers = 1
	cfg.WAL = true
	cfg.WALGroupCommit = o.group
	cfg.Fault = &fault.Options{Seed: o.faultSeed}

	var db *spatialjoin.Database
	if o.seedPath != "" {
		f, err := os.Open(o.seedPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sdb, info, err := spatialjoin.SeedFromSnapshot(cfg, f)
		if err != nil {
			return fmt.Errorf("seeding from %s: %w", o.seedPath, err)
		}
		fmt.Fprintf(out, "seeded: %s (%d pages, checkpoint LSN %d, log durable to %d)\n",
			o.seedPath, info.Pages, info.CheckpointLSN, info.WALDurable)
		db = sdb
	} else {
		db, err = spatialjoin.Open(cfg)
		if err != nil {
			return err
		}
	}
	rectsR := walRects(o.seed, o.k, o.height)
	rectsS := walRects(o.seed+1, o.k, o.height)

	if o.crashAt > 0 {
		db.FaultDisk().SetCrashAfterWrites(o.crashAt)
	}
	inserted, checkpoints := 0, 0
	crashed := false
	if o.seedPath == "" {
		crashed = func() (crashed bool) {
			defer func() {
				if v := recover(); v != nil {
					c, ok := fault.AsCrash(v)
					if !ok {
						panic(v)
					}
					fmt.Fprintf(out, "crash: %v\n", c)
					crashed = true
				}
			}()
			r, err2 := db.CreateCollection("R")
			if err2 != nil {
				err = err2
				return false
			}
			s, err2 := db.CreateCollection("S")
			if err2 != nil {
				err = err2
				return false
			}
			maybeCheckpoint := func() {
				if o.ckptEvery > 0 && inserted%o.ckptEvery == 0 {
					if _, err2 := db.Checkpoint(); err2 != nil {
						err = err2
						return
					}
					checkpoints++
				}
			}
			for i, rc := range rectsR {
				if _, err2 := r.Insert(rc, fmt.Sprintf("r%d", i)); err2 != nil {
					err = err2
					return false
				}
				inserted++
				if maybeCheckpoint(); err != nil {
					return false
				}
			}
			for i, sc := range rectsS {
				if _, err2 := s.Insert(sc, fmt.Sprintf("s%d", i)); err2 != nil {
					err = err2
					return false
				}
				inserted++
				if maybeCheckpoint(); err != nil {
					return false
				}
			}
			return false
		}()
		if err != nil {
			return err
		}
	}
	ws := db.WALStats()
	fmt.Fprintf(out, "workload: two %d-ary trees of height %d (%d+%d tuples), WAL on (group commit %d), M=%d pages, op=%s\n",
		o.k, o.height, len(rectsR), len(rectsS), o.group, o.buffer, op.Name())
	fmt.Fprintf(out, "wal: %d records, %d commits, %d syncs, %d log page writes, %d bytes logged (%d padding)\n",
		ws.Records, ws.Commits, ws.Syncs, ws.PageWrites, ws.BytesLogged, ws.PaddingBytes)
	if checkpoints > 0 {
		tot := db.CheckpointTotals()
		fmt.Fprintf(out, "checkpoints: %d taken, %d pages flushed, %d log pages truncated, redo floor %d\n",
			tot.Checkpoints, tot.PagesFlushed, tot.PagesTruncated, tot.LastFloor)
	}

	if crashed || o.doRecover {
		if fd := db.FaultDisk(); fd.Crashed() {
			fd.Reboot()
		}
		rdb, stats, rerr := spatialjoin.Reopen(cfg, db.Device())
		if rerr != nil {
			return fmt.Errorf("recovering: %w", rerr)
		}
		fmt.Fprintf(out, "recovery: %d log pages read from page %d, %d records scanned, %d replayed onto %d pages, %d skipped below checkpoint %d, %d txns committed, %d discarded, %d torn tail bytes (%d torn pages), %d index rebuilds skipped\n",
			stats.LogPagesRead, stats.HeadPage, stats.RecordsScanned, stats.RecordsReplayed, stats.PagesRestored,
			stats.RecordsSkipped, stats.CheckpointLSN,
			stats.TxnsCommitted, stats.TxnsDiscarded, stats.TornTailBytes, stats.TornPages,
			stats.IndexRebuildsSkipped)
		db = rdb
	} else if inserted > 0 {
		if err := db.Flush(); err != nil {
			return err
		}
	}

	r, okR := db.Collection("R")
	s, okS := db.Collection("S")
	if !okR || !okS {
		fmt.Fprintln(out, "collections did not survive the crash (no committed creation); nothing to join")
		return nil
	}
	fmt.Fprintf(out, "collections: |R|=%d |S|=%d\n", r.Len(), s.Len())

	// Build the join index before any export so the snapshot ships it and
	// the seeded replica's IndexStrategy works without a rebuild. A seeded
	// snapshot (or a recovered log) may already carry it.
	if want("index") && !db.HasJoinIndex(r, s, op) {
		if _, _, err := db.BuildJoinIndex(r, s, op); err != nil {
			return err
		}
	}

	if o.exportPath != "" {
		f, err := os.Create(o.exportPath)
		if err != nil {
			return err
		}
		info, err := db.ExportSnapshot(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("exporting snapshot: %w", err)
		}
		fmt.Fprintf(out, "snapshot: wrote %s (%d pages, checkpoint LSN %d)\n",
			o.exportPath, info.Pages, info.CheckpointLSN)
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	defer func() {
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}()
	fmt.Fprintf(w, "strategy\tresults\tfilter evals\texact evals\tpage reads\tindex reads\tcost\t\n")
	report := func(name string, results int, st spatialjoin.Stats) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.4g\t\n",
			name, results, st.FilterEvals, st.ExactEvals, st.PageReads, st.IndexReads,
			st.Cost(1, 1000))
	}
	if want("scan") {
		ms, st, err := db.Join(r, s, op, spatialjoin.ScanStrategy)
		if err != nil {
			return err
		}
		report("scan", len(ms), st)
	}
	if want("tree") {
		ms, st, err := db.Join(r, s, op, spatialjoin.TreeStrategy)
		if err != nil {
			return err
		}
		report("tree", len(ms), st)
	}
	if want("index") {
		ms, st, err := db.Join(r, s, op, spatialjoin.IndexStrategy)
		if err != nil {
			return err
		}
		report("index", len(ms), st)
	}
	return nil
}
