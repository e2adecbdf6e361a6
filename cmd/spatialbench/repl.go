package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"spatialjoin"
	"spatialjoin/cmd/internal/cli"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/repl"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wire"
)

// errCaughtUp ends a measured tail stream at its first empty chunk.
var errCaughtUp = errors.New("tail caught up")

// replRow is one measured catch-up: a replica position fixed right after
// a seed, a divergence committed behind it, and the bytes each of the
// three catch-up forms ships from that position.
type replRow struct {
	divergence int
	seedBytes  int
	seedPages  int
	tailBytes  int
	deltaBytes int
	deltaInfo  spatialjoin.SnapshotInfo
	fullBytes  int
	fullPages  int
}

// measureReplRow builds a fresh primary with the deterministic base
// workload, fixes a replica position by exporting a seed snapshot, commits
// divergence more inserts, and ships the WAL tail, the snapshot delta, and
// a full snapshot from that position through a live replication source.
func measureReplRow(seed int64, base, divergence int) (replRow, error) {
	row := replRow{divergence: divergence}
	cfg := spatialjoin.DefaultConfig()
	cfg.Workers = 1
	cfg.WAL = true
	cfg.WALGroupCommit = 8
	db, err := spatialjoin.Open(cfg)
	if err != nil {
		return row, err
	}
	defer db.Close()

	world := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(seed))
	col, err := cli.Load(db, "r", datagen.UniformRects(rng, base, world, 2, 30))
	if err != nil {
		return row, err
	}
	// A heartbeat as soon as the tail is idle ends the tail measurement
	// without waiting out the default interval.
	src, err := repl.NewSource(db, repl.SourceOptions{HeartbeatEvery: time.Nanosecond})
	if err != nil {
		return row, err
	}
	defer src.Close()

	// Fix the replica's position: the state right after a full seed.
	var seedBuf countingWriter
	seedInfo, err := db.ExportSnapshot(&seedBuf)
	if err != nil {
		return row, err
	}
	row.seedBytes, row.seedPages = int(seedBuf), seedInfo.Pages
	position := db.DurableLSN()
	if err := cli.Insert(col, datagen.UniformRects(rng, divergence, world, 2, 30)); err != nil {
		return row, err
	}

	// Tail first: it needs the log the delta's checkpoint would seal. The
	// first empty chunk says the tail is caught up.
	err = src.StreamTail(context.Background(), position, func(c wire.WALChunk) error {
		if len(c.Records) == 0 {
			return errCaughtUp
		}
		row.tailBytes += len(c.Records)
		return nil
	})
	if !errors.Is(err, errCaughtUp) {
		return row, err
	}

	var deltaBuf bytes.Buffer
	full, err := src.StreamSnap(context.Background(), position, func(c wire.SnapChunk) error {
		deltaBuf.Write(c.Data)
		return nil
	})
	if err != nil {
		return row, err
	}
	if full {
		return row, fmt.Errorf("source shipped a full snapshot where a delta was expected")
	}
	row.deltaBytes = deltaBuf.Len()
	// Decode the shipped stream against a scratch disk to count the pages
	// it actually carries.
	row.deltaInfo, err = spatialjoin.ApplySnapshotDelta(storage.NewDisk(cfg.PageSize), &deltaBuf)
	if err != nil {
		return row, err
	}

	var fullBuf countingWriter
	fullInfo, err := db.ExportSnapshot(&fullBuf)
	if err != nil {
		return row, err
	}
	row.fullBytes, row.fullPages = int(fullBuf), fullInfo.Pages
	return row, nil
}

// printRepl measures what a replica's catch-up actually costs through the
// live replication source, for the three ways a replica can converge:
// tailing the WAL record by record, patching from a snapshot delta (only
// the pages dirtied behind the replica's position, plus the log), and
// re-seeding from a full snapshot. Each row rebuilds the same primary
// from the seed, fixes the replica position right after a snapshot seed,
// and diverges by a different insert count, so rows are independent and
// deterministic in the seed. The point is the shape — tail cost tracks
// the divergence, delta cost tracks the dirtied page set, full-snapshot
// cost tracks the database's non-zero pages and live log — which is why
// the follower prefers them in exactly that order.
func printRepl(out io.Writer, seed int64) error {
	const baseRects = 2000
	rows := make([]replRow, 0, 3)
	for _, divergence := range []int{50, 200, 800} {
		row, err := measureReplRow(seed, baseRects, divergence)
		if err != nil {
			return fmt.Errorf("divergence %d: %w", divergence, err)
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(out, "== Replica catch-up cost: WAL tail vs delta vs full snapshot (base %d rects, seed %d) ==\n",
		baseRects, seed)
	fmt.Fprintf(out, "seed snapshot at the fixed position: %d bytes, %d pages\n",
		rows[0].seedBytes, rows[0].seedPages)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "divergence (inserts)\ttail bytes\tdelta bytes\tdelta data pages\tdelta log pages\tfull bytes\tfull pages\t\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.divergence, r.tailBytes, r.deltaBytes, r.deltaInfo.DataPages, r.deltaInfo.LogPages,
			r.fullBytes, r.fullPages)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "tail ships only the records behind the position; the delta ships the dirtied")
	fmt.Fprintln(out, "pages plus the live log; the full snapshot ships every non-zero data page plus")
	fmt.Fprintln(out, "the live log. Zero pages and log pages below the head travel as implied zeros.")
	return nil
}

// countingWriter counts bytes without keeping them.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
