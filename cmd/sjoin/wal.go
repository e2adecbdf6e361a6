package main

// The -wal path runs the workload through the Database API with a
// write-ahead log: every insert is a crash-consistent transaction, and the
// -crash-at / -recover flags drive the injected-crash → reboot → recover
// cycle from the command line, printing the recovery ledger the harness
// tests assert on.

import (
	"fmt"
	"io"

	spatialjoin "spatialjoin"
	"spatialjoin/cmd/internal/cli"
	"spatialjoin/internal/fault"
)

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
		sdb, info, err := cli.SeedFromFile(cfg, o.seedPath)
		if err != nil {
			return err
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
	_, rectsR := modelTree(o.seed, o.k, o.height)
	_, rectsS := modelTree(o.seed+1, o.k, o.height)

	inserted, checkpoints := 0, 0
	crashed := false
	if o.seedPath == "" {
		crashed, err = cli.CatchCrash(out, db, o.crashAt, func() error {
			r, err := db.CreateCollection("R")
			if err != nil {
				return err
			}
			s, err := db.CreateCollection("S")
			if err != nil {
				return err
			}
			for _, c := range []struct {
				col   *spatialjoin.Collection
				tag   string
				rects []spatialjoin.Rect
			}{{r, "r", rectsR}, {s, "s", rectsS}} {
				for i, rc := range c.rects {
					if _, err := c.col.Insert(rc, fmt.Sprintf("%s%d", c.tag, i)); err != nil {
						return err
					}
					inserted++
					if o.ckptEvery > 0 && inserted%o.ckptEvery == 0 {
						if _, err := db.Checkpoint(); err != nil {
							return err
						}
						checkpoints++
					}
				}
			}
			return nil
		})
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
		if db, err = cli.Recover(out, cfg, db); err != nil {
			return err
		}
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
		info, err := cli.ExportSnapshotFile(db, o.exportPath)
		if err != nil {
			return fmt.Errorf("exporting snapshot: %w", err)
		}
		fmt.Fprintf(out, "snapshot: wrote %s (%d pages, checkpoint LSN %d)\n",
			o.exportPath, info.Pages, info.CheckpointLSN)
	}

	w, report := resultTable(out)
	defer func() {
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}()
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
