package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
	"spatialjoin/internal/wire"
)

// State is a follower's position in its replication lifecycle.
type State int32

const (
	// StateSeeding: no usable database yet; a snapshot is being fetched.
	StateSeeding State = iota
	// StateCatchingUp: serving reads, but known to be behind the primary.
	StateCatchingUp
	// StateStreaming: caught up to the primary's durable end at last
	// contact.
	StateStreaming
	// StateStalled: disconnected from the primary; reads serve the last
	// applied state until the lag policy calls them stale.
	StateStalled
)

// String names the state for logs and metrics.
func (s State) String() string {
	switch s {
	case StateSeeding:
		return "seeding"
	case StateCatchingUp:
		return "catching-up"
	case StateStreaming:
		return "streaming"
	case StateStalled:
		return "stalled"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Addr is the primary's address, dialed with tcp unless Dial is set.
	Addr string
	// Config opens the replica database; it must have WAL set and Fault
	// unset (the follower needs the raw disk for delta application), and
	// should match the primary's page geometry.
	Config spatialjoin.Config
	// Dial overrides the connection factory (chaos tests cut links here).
	Dial func(ctx context.Context) (net.Conn, error)
	// MaxLagBytes marks the replica stale when its durable end trails the
	// primary's by more than this many log bytes (0: never stale by lag).
	MaxLagBytes int64
	// MaxLagAge marks the replica stale when nothing has been heard from
	// the primary for this long (0: never stale by age).
	MaxLagAge time.Duration
	// BackoffBase and BackoffMax bound the reconnect backoff (defaults
	// 5ms and 500ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics registers follower-side gauges and counters when set.
	Metrics *obs.Registry
}

// Follower is the replica side of replication: it seeds itself from the
// primary, tails the log, and keeps retrying — with capped backoff, delta
// resyncs after truncation, and full reseeds after anything worse — until
// stopped. All replication work happens on one background goroutine;
// readers acquire the current database through Acquire.
type Follower struct {
	opts FollowerOptions

	mu      sync.RWMutex // guards db and disk swaps against readers
	db      *spatialjoin.Database
	disk    *storage.Disk
	applied wal.LSN // NextApplyFloor of the last recovery; replay floor

	connMu sync.Mutex
	conn   net.Conn

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	state         atomic.Int32
	sourceDurable atomic.Int64
	lastProgress  atomic.Int64 // unix nanos of the last frame from the primary
	needResync    atomic.Bool

	reconnects atomic.Int64
	resyncs    atomic.Int64
	fullSeeds  atomic.Int64
	corrupt    atomic.Int64
	chunks     atomic.Int64
	bytes      atomic.Int64
	refreshes  atomic.Int64
	deltaPages atomic.Int64
	staleRejct atomic.Int64
}

// NewFollower validates the options and builds a stopped follower; call
// Start to begin replicating.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if !opts.Config.WAL {
		return nil, errors.New("repl: follower requires Config.WAL")
	}
	if opts.Config.Fault != nil {
		return nil, errors.New("repl: follower Config.Fault must be nil (delta application needs the raw disk)")
	}
	if opts.Dial == nil {
		addr := opts.Addr
		if addr == "" {
			return nil, errors.New("repl: follower needs Addr or Dial")
		}
		opts.Dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 5 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 500 * time.Millisecond
	}
	f := &Follower{
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.state.Store(int32(StateSeeding))
	f.registerMetrics()
	return f, nil
}

// Start launches the replication loop.
func (f *Follower) Start() { go f.run() }

// Stop halts replication, severs any open connection, and waits for the
// loop to exit. The last applied database stays available through Acquire
// (subject to the lag policy) until Close.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.connMu.Lock()
		if f.conn != nil {
			f.conn.Close()
		}
		f.connMu.Unlock()
	})
	<-f.done
}

// Close stops the follower and closes its database.
func (f *Follower) Close() {
	f.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.db != nil {
		f.db.Close()
		f.db = nil
		f.disk = nil
	}
}

// Acquire returns the replica database for one read, with a release the
// caller must invoke when done. It fails with a wire.StatusError carrying
// StatusStale when the replica has no seeded database yet or trails the
// primary beyond the configured lag policy.
func (f *Follower) Acquire() (*spatialjoin.Database, func(), error) {
	//sjlint:ignore lockbalance the read lock is handed to the caller as the release func, pinning the db across the read
	f.mu.RLock()
	if f.db == nil {
		f.mu.RUnlock()
		f.staleRejct.Add(1)
		obs.Record(obs.RecReplStale, 0, 0, 0, 0)
		return nil, nil, &wire.StatusError{Status: wire.StatusStale, Message: "replica has no seeded database yet"}
	}
	if f.opts.MaxLagBytes > 0 {
		if lag := f.lagBytes(); lag > f.opts.MaxLagBytes {
			f.mu.RUnlock()
			f.staleRejct.Add(1)
			obs.Record(obs.RecReplStale, 0, 0, lag, 0)
			return nil, nil, &wire.StatusError{
				Status:  wire.StatusStale,
				Message: fmt.Sprintf("replica lags the primary by %d log bytes (max %d)", lag, f.opts.MaxLagBytes),
			}
		}
	}
	if f.opts.MaxLagAge > 0 {
		if age := f.lagAge(); age > f.opts.MaxLagAge {
			f.mu.RUnlock()
			f.staleRejct.Add(1)
			obs.Record(obs.RecReplStale, 0, 0, 0, age.Nanoseconds())
			return nil, nil, &wire.StatusError{
				Status:  wire.StatusStale,
				Message: fmt.Sprintf("no word from the primary for %.1fs (max %s)", age.Seconds(), f.opts.MaxLagAge),
			}
		}
	}
	return f.db, f.mu.RUnlock, nil
}

// State reports the follower's current lifecycle state.
func (f *Follower) State() State { return State(f.state.Load()) }

// toState moves the state machine, landing the transition in the always-on
// flight recorder when the state actually changes (the tail loop re-asserts
// its state per chunk; only real transitions are worth a ring slot). The
// State and recorder code spaces coincide by construction.
func (f *Follower) toState(s State) {
	if prev := State(f.state.Swap(int32(s))); prev != s {
		obs.Record(obs.RecReplState, uint8(s), 0, int64(prev), 0)
	}
}

// Lag reports how far the replica trails the primary: in log bytes (the
// primary's durable LSN minus the replica's) and in time since the last
// frame arrived from the primary.
func (f *Follower) Lag() (bytes int64, age time.Duration) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.lagBytes(), f.lagAge()
}

// lagBytes needs at least a read lock.
func (f *Follower) lagBytes() int64 {
	if f.db == nil {
		return f.sourceDurable.Load()
	}
	lag := f.sourceDurable.Load() - int64(f.db.DurableLSN())
	if lag < 0 {
		lag = 0
	}
	return lag
}

func (f *Follower) lagAge() time.Duration {
	last := f.lastProgress.Load()
	if last == 0 {
		return 0
	}
	return time.Since(time.Unix(0, last))
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// run is the replication loop: dial, replicate until the session ends,
// back off, repeat. A session that made progress resets the backoff.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.BackoffBase
	for {
		if f.stopped() {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		conn, err := f.opts.Dial(ctx)
		cancel()
		if err != nil {
			f.setDisconnected()
			if !f.sleep(backoff) {
				return
			}
			backoff = f.grow(backoff)
			continue
		}
		f.setConn(conn)
		mark := f.progressMark()
		serr := f.session(conn)
		progressed := f.progressMark() != mark
		f.setConn(nil)
		conn.Close()
		if f.stopped() {
			return
		}
		f.setDisconnected()
		f.reconnects.Add(1)
		if progressed {
			backoff = f.opts.BackoffBase
		}
		if serr != nil {
			if !f.sleep(backoff) {
				return
			}
			backoff = f.grow(backoff)
		}
	}
}

func (f *Follower) setConn(c net.Conn) {
	f.connMu.Lock()
	f.conn = c
	f.connMu.Unlock()
}

// setDisconnected runs on the replication goroutine, which is the only
// writer of f.db, so the unlocked read is race-free... except Close, which
// runs only after Stop has joined the goroutine.
func (f *Follower) setDisconnected() {
	if f.db == nil {
		f.toState(StateSeeding)
	} else {
		f.toState(StateStalled)
	}
}

func (f *Follower) sleep(d time.Duration) bool {
	select {
	case <-f.stop:
		return false
	case <-time.After(d):
		return true
	}
}

func (f *Follower) grow(d time.Duration) time.Duration {
	d *= 2
	if d > f.opts.BackoffMax {
		d = f.opts.BackoffMax
	}
	return d
}

// progressMark is a monotone sum that moves whenever a session does useful
// work; run uses it to reset the reconnect backoff.
func (f *Follower) progressMark() int64 {
	return f.chunks.Load() + f.fullSeeds.Load() + f.resyncs.Load() + f.refreshes.Load()
}

// errResync reports that the primary answered GONE: the records the
// follower asked to tail were truncated, so the next session must resync
// from a snapshot delta.
var errResync = errors.New("repl: tail ask truncated on the primary; resyncing from a delta")

// session drives one connection: seed or resync if needed, then tail the
// log until the connection or the follower dies.
func (f *Follower) session(conn net.Conn) error {
	if f.db == nil {
		f.toState(StateSeeding)
		if err := f.fullSeed(conn, 1); err != nil {
			return err
		}
		f.needResync.Store(false)
	} else if f.needResync.Load() {
		f.toState(StateCatchingUp)
		if err := f.resync(conn, 1); err != nil {
			return err
		}
		f.needResync.Store(false)
	}
	return f.tail(conn, 2)
}

// fullSeed materializes a brand-new database from a full snapshot stream.
func (f *Follower) fullSeed(conn net.Conn, req uint64) error {
	if err := wire.WriteFrame(conn, wire.Frame{
		Type: wire.TypeSnapDelta, Request: req,
		Payload: wire.EncodeSnapDelta(wire.SnapDeltaRequest{SinceLSN: 0}),
	}); err != nil {
		return err
	}
	r := &snapReader{f: f, conn: conn, req: req}
	db, _, err := spatialjoin.SeedFromSnapshot(f.opts.Config, r)
	if err != nil {
		return err
	}
	return f.installSeed(db, r)
}

// installSeed drains the stream's closing frame and swaps the seeded
// database in, closing any predecessor.
func (f *Follower) installSeed(db *spatialjoin.Database, r *snapReader) error {
	if err := r.drain(); err != nil {
		db.Close()
		return err
	}
	disk, ok := db.Device().(*storage.Disk)
	if !ok {
		db.Close()
		return fmt.Errorf("repl: seeded device %T is not a raw disk", db.Device())
	}
	f.mu.Lock()
	old := f.db
	f.db = db
	f.disk = disk
	f.applied = db.RecoveryInfo().NextApplyFloor
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
	f.fullSeeds.Add(1)
	return nil
}

// resync catches a diverged or truncated-past follower up from a snapshot
// delta — or from a full snapshot, when the primary answers with one (its
// dirty-page tracking did not reach back to our applied LSN) or when a
// previous failed resync left no usable disk.
func (f *Follower) resync(conn net.Conn, req uint64) error {
	f.resyncs.Add(1)
	since := f.applied
	if f.disk == nil {
		since = 0
	}
	if err := wire.WriteFrame(conn, wire.Frame{
		Type: wire.TypeSnapDelta, Request: req,
		Payload: wire.EncodeSnapDelta(wire.SnapDeltaRequest{SinceLSN: uint64(since)}),
	}); err != nil {
		return err
	}
	r := &snapReader{f: f, conn: conn, req: req}
	var hdr bytes.Buffer
	info, err := spatialjoin.ReadSnapshotHeader(io.TeeReader(r, &hdr))
	if err != nil {
		if hdr.Len() > 0 { // it arrived and does not parse
			f.corrupt.Add(1)
		}
		return err
	}
	rr := io.MultiReader(&hdr, r)
	if info.SinceLSN == 0 {
		db, _, serr := spatialjoin.SeedFromSnapshot(f.opts.Config, rr)
		if serr != nil {
			return serr
		}
		return f.installSeed(db, r)
	}
	// A delta patches the raw disk in place, so the database over it must
	// close first; readers see the replica as unseeded (STALE) until the
	// patched disk reopens through full-log replay.
	f.mu.Lock()
	old := f.db
	f.db = nil
	disk := f.disk
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if info, err = spatialjoin.ApplySnapshotDelta(disk, rr); err != nil {
		// The disk may be half-patched: discard it so the next session
		// reseeds from a full snapshot instead of trusting torn state.
		f.dropDisk()
		f.corrupt.Add(1)
		return err
	}
	if err := r.drain(); err != nil {
		f.dropDisk()
		return err
	}
	db, stats, rerr := spatialjoin.ReopenAt(f.opts.Config, disk, 1)
	if rerr != nil {
		f.dropDisk()
		return rerr
	}
	f.deltaPages.Add(int64(info.Pages))
	f.mu.Lock()
	f.db = db
	f.applied = stats.NextApplyFloor
	f.mu.Unlock()
	return nil
}

func (f *Follower) dropDisk() {
	f.mu.Lock()
	f.disk = nil
	f.mu.Unlock()
}

// tail streams the primary's log from the follower's durable end, applying
// each shipped chunk through AppendRawWAL and reopening through bounded
// recovery whenever a batch lands committed state.
func (f *Follower) tail(conn net.Conn, req uint64) error {
	from := f.db.DurableLSN()
	if err := wire.WriteFrame(conn, wire.Frame{
		Type: wire.TypeReplTail, Request: req,
		Payload: wire.EncodeReplTail(wire.ReplTailRequest{FromLSN: uint64(from)}),
	}); err != nil {
		return err
	}
	f.toState(StateCatchingUp)
	for {
		if f.stopped() {
			return nil
		}
		fr, err := wire.ReadFrame(conn, wire.MaxPayload)
		if err != nil {
			return err
		}
		if fr.Request != req {
			return fmt.Errorf("repl: frame for request %d on tail stream %d", fr.Request, req)
		}
		f.lastProgress.Store(time.Now().UnixNano())
		switch fr.Type {
		case wire.TypeWALChunk:
			c, derr := wire.DecodeWALChunk(fr.Payload)
			if derr != nil {
				f.corrupt.Add(1)
				return derr
			}
			f.sourceDurable.Store(int64(c.DurableLSN))
			if len(c.Records) > 0 {
				records, aerr := f.db.AppendRawWAL(wal.LSN(c.BaseLSN), c.Records)
				if aerr != nil {
					// A corrupt or misaligned chunk never lands: reconnect
					// and re-request from our (unchanged) durable end.
					f.corrupt.Add(1)
					return aerr
				}
				f.chunks.Add(1)
				f.bytes.Add(int64(len(c.Records)))
				if needsRefresh(records) {
					if rerr := f.refresh(); rerr != nil {
						return rerr
					}
				}
			}
			if int64(f.db.DurableLSN()) >= int64(c.DurableLSN) {
				f.toState(StateStreaming)
			} else {
				f.toState(StateCatchingUp)
			}
		case wire.TypeDone:
			d, derr := wire.DecodeDone(fr.Payload)
			if derr != nil {
				return derr
			}
			if d.Status == wire.StatusGone {
				obs.Record(obs.RecReplGone, 0, 0, int64(from), 0)
				f.needResync.Store(true)
				return errResync
			}
			return &wire.StatusError{Status: d.Status, Message: d.Message}
		default:
			return fmt.Errorf("repl: unexpected frame %#02x on tail stream", fr.Type)
		}
	}
}

// needsRefresh reports whether a shipped batch lands committed state — only
// then is the cost of reopening through recovery paid. Begin, image, and
// abort records change nothing a reader may see.
func needsRefresh(records []wal.Record) bool {
	for _, r := range records {
		switch r.Type {
		case wal.RecCommit, wal.RecNewCollection, wal.RecNewJoinIndex, wal.RecCheckpointEnd:
			return true
		}
	}
	return false
}

// refresh reopens the replica database through recovery floored at the
// last applied LSN, absorbing freshly shipped commits. Readers block on
// the swap rather than observing a stale window.
func (f *Follower) refresh() error {
	f.refreshes.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.db.Close()
	db, stats, err := spatialjoin.ReopenAt(f.opts.Config, f.disk, f.applied)
	if err != nil {
		f.db = nil
		f.disk = nil
		return err
	}
	f.db = db
	f.applied = stats.NextApplyFloor
	return nil
}

// snapReader adapts a run of SnapChunk frames into an io.Reader that ends
// in io.EOF at the stream's closing Done frame. Offsets are verified
// contiguous, so a dropped or reordered chunk fails instead of feeding the
// seed a gapped stream.
type snapReader struct {
	f    *Follower
	conn net.Conn
	req  uint64
	buf  []byte
	next uint64
	done bool
}

func (r *snapReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		if r.done {
			return 0, io.EOF
		}
		fr, err := wire.ReadFrame(r.conn, wire.MaxPayload)
		if err != nil {
			return 0, err
		}
		if fr.Request != r.req {
			return 0, fmt.Errorf("repl: frame for request %d on snapshot stream %d", fr.Request, r.req)
		}
		r.f.lastProgress.Store(time.Now().UnixNano())
		switch fr.Type {
		case wire.TypeSnapChunk:
			c, derr := wire.DecodeSnapChunk(fr.Payload)
			if derr != nil {
				r.f.corrupt.Add(1)
				return 0, derr
			}
			if c.Offset != r.next {
				r.f.corrupt.Add(1)
				return 0, fmt.Errorf("repl: snapshot chunk at offset %d, want %d", c.Offset, r.next)
			}
			r.next += uint64(len(c.Data))
			r.buf = c.Data
			r.f.chunks.Add(1)
			r.f.bytes.Add(int64(len(c.Data)))
		case wire.TypeDone:
			d, derr := wire.DecodeDone(fr.Payload)
			if derr != nil {
				return 0, derr
			}
			r.done = true
			if d.Status != wire.StatusOK {
				return 0, &wire.StatusError{Status: d.Status, Message: d.Message}
			}
		default:
			return 0, fmt.Errorf("repl: unexpected frame %#02x on snapshot stream", fr.Type)
		}
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// drain consumes the stream through its closing Done frame; the decoders
// stop reading at the snapshot's trailer, one frame shy of it.
func (r *snapReader) drain() error {
	var scratch [4096]byte
	for !r.done {
		if _, err := r.Read(scratch[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

// registerMetrics exposes follower-side replication gauges and counters.
func (f *Follower) registerMetrics() {
	m := f.opts.Metrics
	if m == nil {
		return
	}
	m.GaugeFunc("spatialjoin_repl_state",
		"Follower state: 0 seeding, 1 catching up, 2 streaming, 3 stalled.",
		func() float64 { return float64(f.state.Load()) })
	m.GaugeFunc("spatialjoin_repl_lag_bytes",
		"Log bytes the replica's durable end trails the primary's.",
		func() float64 { b, _ := f.Lag(); return float64(b) })
	m.GaugeFunc("spatialjoin_repl_lag_seconds",
		"Seconds since the last frame arrived from the primary.",
		func() float64 { _, a := f.Lag(); return a.Seconds() })
	count := func(name, help string, load func() int64) {
		m.CounterFunc(name, help, func() float64 { return float64(load()) })
	}
	count("spatialjoin_repl_reconnects_total", "Sessions ended and re-dialed.", func() int64 { return f.reconnects.Load() })
	count("spatialjoin_repl_resyncs_total", "Delta resyncs after the primary truncated past our ask.", func() int64 { return f.resyncs.Load() })
	count("spatialjoin_repl_full_seeds_total", "Full snapshot seeds applied.", func() int64 { return f.fullSeeds.Load() })
	count("spatialjoin_repl_corrupt_chunks_total", "Chunks rejected by CRC, decode, or alignment checks.", func() int64 { return f.corrupt.Load() })
	count("spatialjoin_repl_chunks_total", "Replication chunks applied.", func() int64 { return f.chunks.Load() })
	count("spatialjoin_repl_bytes_total", "Replication payload bytes applied.", func() int64 { return f.bytes.Load() })
	count("spatialjoin_repl_refreshes_total", "Reopens through recovery to absorb shipped commits.", func() int64 { return f.refreshes.Load() })
	count("spatialjoin_repl_delta_pages_total", "Pages shipped by snapshot deltas.", func() int64 { return f.deltaPages.Load() })
	count("spatialjoin_repl_stale_rejections_total", "Reads refused by the staleness policy.", func() int64 { return f.staleRejct.Load() })
}
