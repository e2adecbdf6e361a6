package main

// -what wal measures the price of crash consistency: the same insert
// workload runs with the WAL off, with a sync on every commit, and with
// group commit, and the table reports throughput and physical writes so the
// measured overhead can be held against the paper's §4.2 analytic update
// costs (which charge C_U per R-tree node but assume free durability).
// -crash-at and -recover extend the run with a live crash → reboot →
// recover cycle and print the recovery ledger.

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"spatialjoin"
	"spatialjoin/cmd/internal/cli"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/geom"
)

const walBenchRects = 600

func walBenchConfig(seed int64, useWAL bool, group int) spatialjoin.Config {
	cfg := spatialjoin.DefaultConfig()
	cfg.Workers = 1
	cfg.WAL = useWAL
	cfg.WALGroupCommit = group
	cfg.Fault = &fault.Options{Seed: seed}
	return cfg
}

// printWAL measures WAL overhead on this machine and, when asked, runs a
// crash → recover cycle. The row set is fixed — off, sync-every-commit,
// group-commit — because those are the three durability policies the write
// path distinguishes.
func printWAL(out io.Writer, seed int64, group int, crashAt int64, doRecover bool) error {
	if group < 2 {
		group = 8
	}
	world := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(seed))
	rects := datagen.UniformRects(rng, walBenchRects, world, 2, 30)

	fmt.Fprintf(out, "== WAL overhead: %d inserts, one txn each (measured, seed %d) ==\n",
		len(rects), seed)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "policy\twall ms\tinserts/s\toverhead\tdevice writes\tlog writes\tsyncs\tbytes logged\tbytes/insert\timages\tpadding\t\n")
	var base time.Duration
	rows := []struct {
		name   string
		useWAL bool
		group  int
	}{
		{"wal off", false, 0},
		{"sync every commit", true, 1},
		{fmt.Sprintf("group commit %d", group), true, group},
	}
	for i, row := range rows {
		db, err := spatialjoin.Open(walBenchConfig(seed, row.useWAL, row.group))
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := cli.Load(db, "r", rects); err != nil {
			return err
		}
		if err := db.Flush(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if i == 0 {
			base = elapsed
		}
		ds, ws := db.DiskStats(), db.WALStats()
		fmt.Fprintf(w, "%s\t%.2f\t%.0f\t%.2fx\t%d\t%d\t%d\t%d\t%.0f\t%d\t%d\t\n",
			row.name, float64(elapsed.Microseconds())/1000,
			float64(len(rects))/elapsed.Seconds(), float64(elapsed)/float64(base),
			ds.Writes, ws.PageWrites, ws.Syncs, ws.BytesLogged,
			float64(ws.BytesLogged)/float64(len(rects)), ws.Images, ws.PaddingBytes)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if crashAt <= 0 && !doRecover {
		return nil
	}
	fmt.Fprintf(out, "-- crash cycle: WAL on (sync every commit), crash after %d writes --\n", crashAt)
	cfg := walBenchConfig(seed, true, 1)
	db, err := spatialjoin.Open(cfg)
	if err != nil {
		return err
	}
	crashed, err := cli.CatchCrash(out, db, crashAt, func() error {
		_, err := cli.Load(db, "r", rects)
		return err
	})
	if err != nil {
		return err
	}
	rdb, err := cli.Recover(out, cfg, db)
	if err != nil {
		return err
	}
	survived := 0
	if c, ok := rdb.Collection("r"); ok {
		survived = c.Len()
	}
	fmt.Fprintf(out, "survived: %d of %d inserts committed before the crash (crashed=%v)\n",
		survived, len(rects), crashed)
	return nil
}
