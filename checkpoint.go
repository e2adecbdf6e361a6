package spatialjoin

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// CheckpointStats reports what one fuzzy checkpoint did.
type CheckpointStats struct {
	// BeginLSN and EndLSN bracket the checkpoint in the log.
	BeginLSN, EndLSN wal.LSN
	// RedoFloor is the LSN below which no log record can ever be needed
	// again; log pages wholly below it were reclaimed (when truncating).
	RedoFloor wal.LSN
	// PagesFlushed is the number of committed dirty frames the incremental
	// flush wrote back while writers kept running.
	PagesFlushed int
	// DirtyPages is the residual dirty-page table size recorded in the end
	// record — frames re-dirtied (or newly dirtied) during the flush.
	DirtyPages int
	// ActiveTxns is the number of transactions in flight at the begin
	// record.
	ActiveTxns int
	// PagesTruncated is the number of log pages that fell wholly below the
	// floor: no recovery or tail reader reads them again.
	PagesTruncated int
	Duration       time.Duration
}

// CheckpointTotals aggregates checkpoint activity since Open/Reopen, for
// metrics exposition.
type CheckpointTotals struct {
	Checkpoints    int64
	PagesFlushed   int64
	PagesTruncated int64
	LastFloor      wal.LSN
	LastDuration   time.Duration
}

// Checkpoint takes a fuzzy checkpoint and truncates the log below its redo
// floor. It runs concurrently with mutations: writers are blocked only for
// the instants the transaction table is snapshotted and the end record is
// assembled, never for the page flushing in between. After it returns,
// recovery replays only records at or above the floor, and reads only the
// log pages a recovery could still need.
func (db *Database) Checkpoint() (CheckpointStats, error) {
	return db.checkpoint(true)
}

// checkpoint is Checkpoint with truncation optional: crash harnesses that
// re-recover from LSN 0 need the full log to survive the checkpoint.
//
// Protocol (see internal/wal/checkpoint.go for the recovery-side
// contract): the active-transaction table is snapshotted atomically with
// appending the begin record, under db.mu — the same lock runTxn registers
// under — so every transaction is either in the snapshot or begins above
// Lb. Committed dirty frames are then flushed incrementally in ascending
// page order; whatever remains dirty (re-dirtied during the sweep, pinned
// by a writer, or covered only by still-open transactions) lands in the end
// record's dirty-page table with its redo floor. Only the durable end record
// makes the checkpoint real; a crash in between leaves a begin marker
// recovery ignores.
func (db *Database) checkpoint(truncate bool) (CheckpointStats, error) {
	var cs CheckpointStats
	if db.wal == nil {
		return cs, fmt.Errorf("spatialjoin: checkpoint requires Config.WAL")
	}
	start := time.Now()
	db.mu.Lock()
	if db.poisoned != nil {
		err := db.poisoned
		db.mu.Unlock()
		return cs, err
	}
	if db.closed {
		db.mu.Unlock()
		return cs, errClosed
	}
	active := make([]wal.ActiveTxn, 0, len(db.activeTxns))
	for txn, begin := range db.activeTxns {
		active = append(active, wal.ActiveTxn{Txn: txn, BeginLSN: begin})
	}
	nextTxn := db.nextTxn
	lb := db.wal.AppendCheckpointBegin()
	db.mu.Unlock()
	obs.Record(obs.RecCheckpointBegin, 0, 0, int64(lb), 0)
	sort.Slice(active, func(i, j int) bool { return active[i].Txn < active[j].Txn })
	fault.CrashPoint("checkpoint.begin")

	prev := storage.PageID{File: -1, Page: -1}
	for {
		id, ok, err := db.pool.FlushOneDirty(prev)
		if err != nil {
			return cs, err
		}
		if !ok {
			break
		}
		cs.PagesFlushed++
		prev = id
		fault.CrashPoint("checkpoint.flush-page")
	}

	dpt := db.pool.DirtyPageTable()
	wdpt := make([]wal.DirtyPage, len(dpt))
	for i, d := range dpt {
		wdpt[i] = wal.DirtyPage{Page: d.ID, RecLSN: wal.LSN(d.RedoLSN)}
	}
	db.mu.Lock()
	manifest := db.manifestLocked()
	if db.nextTxn > nextTxn {
		nextTxn = db.nextTxn
	}
	db.mu.Unlock()

	cp := wal.Checkpoint{BeginLSN: lb, NextTxn: nextTxn, Active: active, DPT: wdpt, Manifest: manifest}
	end, err := db.wal.AppendCheckpointEnd(cp, truncate)
	if err != nil {
		return cs, err
	}
	fault.CrashPoint("checkpoint.end")
	cs.BeginLSN, cs.EndLSN = lb, end
	cs.RedoFloor = cp.RedoFloor()
	cs.DirtyPages = len(wdpt)
	cs.ActiveTxns = len(active)
	if truncate {
		cs.PagesTruncated = db.wal.TruncateBelow(cs.RedoFloor)
	}
	cs.Duration = time.Since(start)
	obs.Record(obs.RecCheckpointEnd, 0, 0, int64(cs.PagesFlushed), int64(db.wal.ScanFloor()))

	db.ckptMu.Lock()
	db.ckptTotals.Checkpoints++
	db.ckptTotals.PagesFlushed += int64(cs.PagesFlushed)
	db.ckptTotals.PagesTruncated += int64(cs.PagesTruncated)
	db.ckptTotals.LastFloor = cs.RedoFloor
	db.ckptTotals.LastDuration = cs.Duration
	db.ckptMu.Unlock()
	return cs, nil
}

// CheckpointTotals returns aggregate checkpoint activity since Open/Reopen.
func (db *Database) CheckpointTotals() CheckpointTotals {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.ckptTotals
}

// RecoveryInfo returns the stats of the recovery pass that produced this
// database; all zero for a database that came from Open.
func (db *Database) RecoveryInfo() RecoveryStats { return db.recovered }

// manifestLocked snapshots the catalog — the registration of every
// collection, then of every join index — in deterministic (name, key)
// order. Caller holds db.mu.
func (db *Database) manifestLocked() []wal.Record {
	m := make([]wal.Record, len(db.catalog))
	for i, e := range db.catalog {
		m[i] = e.rec
	}
	return m
}

// catalogEntry is one registration in the checkpoint manifest and the name
// (collection) or key (join index) it sorts by.
type catalogEntry struct {
	key string
	rec wal.Record
}

// registerLocked files rec, the registration of the collection or join
// index under key, at its place in the manifest: collections before join
// indices, each in key order, so a checkpoint copies the manifest without
// sorting or encoding it. Caller holds db.mu or has not yet shared db.
func (db *Database) registerLocked(key string, rec wal.Record) {
	e := catalogEntry{key: key, rec: rec}
	i, _ := slices.BinarySearchFunc(db.catalog, e, func(a, b catalogEntry) int {
		if c := cmp.Compare(a.rec.Type, b.rec.Type); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	db.catalog = slices.Insert(db.catalog, i, e)
}
