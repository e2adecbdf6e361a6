// Package repl keeps read-only replicas of a spatialjoin database
// continuously current over the wire protocol. The primary side is a
// Source: it serves WAL tail streams (raw CRC-checked records from a
// requested LSN) and snapshot streams (a full snapshot, or a delta of
// just the pages dirtied since the replica's last-applied LSN). The
// replica side is a Follower: a state machine that seeds itself from a
// snapshot, tails the log through ordinary recovery, detects when the
// primary has truncated the records it needs and falls back to a delta
// resync, and retries every failure with capped backoff — a replica left
// alone converges to the primary's committed prefix through disconnects,
// crashes, corrupt frames, and log truncation.
package repl

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
	"spatialjoin/internal/wire"
)

// ErrSourceClosed reports an operation on a closed Source.
var ErrSourceClosed = errors.New("repl: source closed")

// SourceOptions tunes a Source. The zero value serves.
type SourceOptions struct {
	// Checkpoint runs a checkpoint on the primary before a snapshot or
	// delta is cut, forcing committed content onto the device. Defaults to
	// the database's own Checkpoint; override to serialize with an external
	// checkpoint schedule.
	Checkpoint func() error
	// PollInterval is how often an idle tail stream looks for new records
	// (default 2ms).
	PollInterval time.Duration
	// HeartbeatEvery is how often an idle tail stream ships an empty chunk
	// carrying the primary's durable LSN, so a caught-up replica keeps an
	// up-to-date lag reading (default 100ms).
	HeartbeatEvery time.Duration
	// Metrics registers source-side counters when set.
	Metrics *obs.Registry
}

// Source serves replication streams off a live primary. It tracks which
// pages the log has changed — imaged or appended to — by tailing the
// primary's own log with a TailReader, pinned against checkpoint
// truncation, so a delta request ships only the pages dirtied since the
// replica's applied LSN.
type Source struct {
	db     *spatialjoin.Database
	dev    storage.Device
	opts   SourceOptions
	closed chan struct{}
	once   sync.Once

	mu         sync.Mutex
	tracker    *wal.TailReader
	lastChange map[storage.PageID]wal.LSN
	knownSince wal.LSN

	tailStreams   atomic.Int64
	snapStreams   atomic.Int64
	fullSnaps     atomic.Int64
	deltas        atomic.Int64
	chunks        atomic.Int64
	bytes         atomic.Int64
	trackerResets atomic.Int64
}

// NewSource builds a Source over db, which must run with a WAL. The
// dirty-page tracker starts at the current durable end: delta requests
// older than this instant fall back to full snapshots until the tracker
// has history for them.
func NewSource(db *spatialjoin.Database, opts SourceOptions) (*Source, error) {
	if opts.Checkpoint == nil {
		opts.Checkpoint = func() error { _, err := db.Checkpoint(); return err }
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 2 * time.Millisecond
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 100 * time.Millisecond
	}
	durable := db.DurableLSN()
	if durable == 0 {
		return nil, errors.New("repl: source requires a database with Config.WAL")
	}
	dev := db.Device()
	tracker, err := wal.OpenTail(dev, durable)
	if err != nil {
		return nil, err
	}
	s := &Source{
		db:         db,
		dev:        dev,
		opts:       opts,
		closed:     make(chan struct{}),
		tracker:    tracker,
		lastChange: make(map[storage.PageID]wal.LSN),
		knownSince: durable,
	}
	db.RetainWAL(durable)
	s.registerMetrics()
	return s, nil
}

// Close stops the source: open streams return ErrSourceClosed at their
// next step, and the log-truncation pin is released.
func (s *Source) Close() {
	s.once.Do(func() {
		close(s.closed)
		s.db.RetainWAL(0)
	})
}

func (s *Source) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// catchUpLocked advances the dirty-page tracker to the log's durable end,
// recording the latest LSN at which each page was imaged or appended to (an
// append-only transaction dirties its pages just as surely, and a delta
// that left them out would strand the replica's copy below the appends the
// shipped log builds on), then moves the truncation pin
// up to the tracker. If the tracker has somehow lost its place — the pin
// was released, or the log diverged — it restarts at the durable end and
// the delta horizon moves up with it: older delta requests get full
// snapshots, never wrong ones.
func (s *Source) catchUpLocked() error {
	for {
		base, chunk, err := s.tracker.Next(1 << 20)
		if err != nil {
			durable := s.db.DurableLSN()
			tracker, rerr := wal.OpenTail(s.dev, durable)
			if rerr != nil {
				return rerr
			}
			s.tracker = tracker
			s.lastChange = make(map[storage.PageID]wal.LSN)
			s.knownSince = durable
			s.trackerResets.Add(1)
			s.db.RetainWAL(durable)
			return nil
		}
		if chunk == nil {
			s.db.RetainWAL(s.tracker.Pos())
			return nil
		}
		records, err := wal.ParseChunk(base, chunk)
		if err != nil {
			return err
		}
		for _, r := range records {
			if r.Type == wal.RecImage || r.Type == wal.RecAppend {
				s.lastChange[r.Page] = r.LSN
			}
		}
	}
}

// Advance catches the dirty-page tracker up to the log's durable end and
// moves the truncation pin with it. Primaries call it on their checkpoint
// schedule: retention then follows the tracker rather than the source's
// birth, so the log stays truncatable, and a replica that fell behind the
// pin pays a delta resync instead of holding history hostage forever.
func (s *Source) Advance() error {
	if s.isClosed() {
		return ErrSourceClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catchUpLocked()
}

// StreamTail serves one tail stream from the given record-boundary LSN
// through send until the context ends, the source closes, or send fails.
// It fails with wal.ErrTruncatedAway when the log no longer reaches back
// that far — the replica should resync from a delta. A chunk with no
// Records means the stream is caught up; it still carries the primary's
// durable LSN for lag accounting. Idle periods ship such heartbeat chunks
// every HeartbeatEvery so the replica's lag reading stays fresh; the first
// one goes out immediately.
func (s *Source) StreamTail(ctx context.Context, from wal.LSN, send func(wire.WALChunk) error) error {
	if s.isClosed() {
		return ErrSourceClosed
	}
	tr, err := wal.OpenTail(s.dev, from)
	if err != nil {
		return err
	}
	s.tailStreams.Add(1)
	defer s.tailStreams.Add(-1)
	var lastBeat time.Time
	for {
		if err := s.live(ctx); err != nil {
			return err
		}
		base, records, err := tr.Next(wire.MaxReplChunk)
		if err != nil {
			return err
		}
		c := wire.WALChunk{BaseLSN: uint64(base), DurableLSN: uint64(s.db.DurableLSN()), Records: records}
		if len(records) == 0 {
			if time.Since(lastBeat) >= s.opts.HeartbeatEvery || lastBeat.IsZero() {
				if err := send(c); err != nil {
					return err
				}
				lastBeat = time.Now()
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-s.closed:
				return ErrSourceClosed
			case <-time.After(s.opts.PollInterval):
			}
			continue
		}
		if err := send(c); err != nil {
			return err
		}
		s.chunks.Add(1)
		s.bytes.Add(int64(len(records)))
		lastBeat = time.Now()
	}
}

// StreamSnap checkpoints the primary and serves one snapshot stream
// through send: the pages dirtied since the given LSN, or a full device
// snapshot when since predates the tracker's horizon (in particular, since
// 0). It returns when the stream is complete, the context ends, the source
// closes, or send fails; the boolean reports whether a full snapshot
// (rather than a delta) was shipped. The export runs on the caller's
// goroutine and each chunk is sent as it fills: every chunk but the last
// is wire.MaxReplChunk bytes, and a chunk's Data is valid only until send
// returns.
func (s *Source) StreamSnap(ctx context.Context, since wal.LSN, send func(wire.SnapChunk) error) (bool, error) {
	full, pages, err := s.snapPages(since)
	if err != nil {
		return full, err
	}
	s.snapStreams.Add(1)
	defer s.snapStreams.Add(-1)
	w := &chunkWriter{s: s, ctx: ctx, send: send, buf: make([]byte, 0, wire.MaxReplChunk)}
	if full {
		_, err = s.db.ExportSnapshot(w)
	} else {
		_, err = s.db.ExportDelta(w, since, pages)
	}
	if err == nil && len(w.buf) > 0 {
		err = w.flush()
	}
	return full, err
}

// snapPages checkpoints the primary, catches the dirty-page tracker up and
// chooses a snapshot stream's page set: full when since predates the
// tracker's horizon, else the pages changed at or after since.
func (s *Source) snapPages(since wal.LSN) (bool, []storage.PageID, error) {
	if s.isClosed() {
		return false, nil, ErrSourceClosed
	}
	if err := s.opts.Checkpoint(); err != nil {
		return false, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.catchUpLocked(); err != nil {
		return false, nil, err
	}
	if since < s.knownSince {
		s.fullSnaps.Add(1)
		return true, nil, nil
	}
	var pages []storage.PageID
	for id, lsn := range s.lastChange {
		if lsn >= since {
			pages = append(pages, id)
		}
	}
	s.deltas.Add(1)
	return false, pages, nil
}

// chunkWriter cuts an export into wire.MaxReplChunk chunks in one buffer
// and sends each as it fills. A failed send, an ended context or a closed
// source fails the Write, which aborts the export with that error.
type chunkWriter struct {
	s    *Source
	ctx  context.Context
	send func(wire.SnapChunk) error
	buf  []byte
	off  uint64
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf, p = w.buf[:len(w.buf)+k], p[k:]
		if len(w.buf) == cap(w.buf) {
			if err := w.flush(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

// flush sends the buffered chunk.
func (w *chunkWriter) flush() error {
	if err := w.s.live(w.ctx); err != nil {
		return err
	}
	if err := w.send(wire.SnapChunk{Offset: w.off, Data: w.buf}); err != nil {
		return err
	}
	w.off += uint64(len(w.buf))
	w.s.chunks.Add(1)
	w.s.bytes.Add(int64(len(w.buf)))
	w.buf = w.buf[:0]
	return nil
}

// live reports why a stream must stop — its context ended or the source
// closed — or nil while it may go on.
func (s *Source) live(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.closed:
		return ErrSourceClosed
	default:
		return nil
	}
}

// registerMetrics exposes source-side replication counters.
func (s *Source) registerMetrics() {
	m := s.opts.Metrics
	if m == nil {
		return
	}
	m.GaugeFunc("spatialjoin_repl_source_tail_streams", "Open WAL tail streams.",
		func() float64 { return float64(s.tailStreams.Load()) })
	m.GaugeFunc("spatialjoin_repl_source_snap_streams", "Open snapshot streams.",
		func() float64 { return float64(s.snapStreams.Load()) })
	m.CounterFunc("spatialjoin_repl_source_full_snapshots_total", "Full snapshots shipped to replicas.",
		func() float64 { return float64(s.fullSnaps.Load()) })
	m.CounterFunc("spatialjoin_repl_source_deltas_total", "Incremental snapshot deltas shipped to replicas.",
		func() float64 { return float64(s.deltas.Load()) })
	m.CounterFunc("spatialjoin_repl_source_chunks_total", "Replication chunks shipped.",
		func() float64 { return float64(s.chunks.Load()) })
	m.CounterFunc("spatialjoin_repl_source_bytes_total", "Replication payload bytes shipped.",
		func() float64 { return float64(s.bytes.Load()) })
	m.CounterFunc("spatialjoin_repl_source_tracker_resets_total", "Dirty-page tracker resets (deltas degraded to full snapshots).",
		func() float64 { return float64(s.trackerResets.Load()) })
}
