package spatialjoin

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/join"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// Config sizes the simulated storage subsystem, mirroring the cost model's
// system parameters (Table 2), and the parallel execution engine.
type Config struct {
	// PageSize is the disk page size s in bytes.
	PageSize int
	// BufferPages is the buffer-pool capacity M in pages.
	BufferPages int
	// FillFactor is the average page utilization l in (0, 1].
	FillFactor float64
	// IndexOptions configures the per-collection R-tree indices.
	IndexOptions rtree.Options
	// JoinIndexOrder is the B+-tree order z for precomputed join indices.
	JoinIndexOrder int
	// Workers is the number of goroutines join strategies may use.
	// 0 means runtime.GOMAXPROCS(0); 1 forces sequential execution.
	// Whatever the setting, every strategy returns the identical,
	// canonically (R, S)-sorted match set.
	Workers int
	// QueryTimeout, when positive, bounds every Join/Select call with a
	// deadline; an expired deadline aborts the traversal mid-descent with
	// context.DeadlineExceeded. Contexts passed to JoinContext /
	// SelectContext compose with it (whichever fires first wins).
	QueryTimeout time.Duration
	// SlowQuery, when positive, is the latency threshold above which a
	// finished query additionally lands in the always-on flight recorder
	// as a slow_query event (see internal/obs: /debug/events, SIGQUIT
	// dump), carrying its trace ID when the query was traced.
	SlowQuery time.Duration
	// Fault, when non-nil, interposes a deterministic fault-injecting
	// device (see internal/fault) between the buffer pool and the disk.
	// Production-shaped code never sets this; chaos tests and the CLI
	// flags do.
	Fault *fault.Options
	// Retry, when non-nil, overrides the buffer pool's default retry
	// policy for physical page transfers.
	Retry *storage.RetryPolicy
	// WAL turns on crash-consistent updates through a write-ahead log:
	// every mutation (Insert, CreateCollection, BuildJoinIndex) becomes an
	// atomic transaction, and a crashed database reopened with Reopen
	// recovers to exactly the committed state.
	WAL bool
	// WALGroupCommit is the number of commits batched per log sync when
	// WAL is on. Values <= 1 force the log durable on every commit (the
	// safest, slowest policy); larger values amortize log writes at the
	// cost of losing the newest unsynced transactions in a crash — never
	// of corrupting the survivors.
	WALGroupCommit int
	// Metrics, when non-nil, exposes the engine through the registry:
	// buffer pool, disk, WAL, worker pool, and per-query counters are
	// registered at Open and sampled at scrape time, so query hot paths
	// stay unobserved-cost-free. Give each database its own registry —
	// samplers are keyed by metric name and a second database would
	// overwrite the first's. Serve it with obs.NewMux or WritePrometheus.
	Metrics *obs.Registry
}

// DefaultConfig returns a laptop-scale configuration with the paper's page
// geometry (s = 2000, l = 0.75), a 256-page buffer pool, and one join
// worker per available CPU.
func DefaultConfig() Config {
	return Config{
		PageSize:       2000,
		BufferPages:    256,
		FillFactor:     0.75,
		IndexOptions:   rtree.DefaultOptions(),
		JoinIndexOrder: 100,
		Workers:        runtime.GOMAXPROCS(0),
	}
}

// Database is an embedded spatial database over a simulated paged disk.
// All collections share one buffer pool, so measured page I/O reflects real
// cache contention between the inner and outer relations of a join.
//
// Read-only operations (Join, Select, SelectStored, Get, IOStats) are safe
// to call from multiple goroutines concurrently. Mutations — Insert,
// CreateCollection, BuildJoinIndex, DropCache, ResetIOStats — require
// external serialization with respect to every other call.
type Database struct {
	cfg         Config
	pool        *storage.BufferPool
	faultDisk   *fault.Disk // nil unless Config.Fault was set
	wal         *wal.Log    // nil unless Config.WAL
	collections map[string]*Collection
	joinIndices map[string]*JoinIndex
	nextTxn     uint64
	poisoned    error // set when a WAL transaction died mid-flight
	closed      bool

	// mu guards the transaction bookkeeping a fuzzy checkpoint must see
	// atomically: nextTxn, activeTxns and the catalog maps' membership.
	// Queries and in-transaction page work never hold it.
	mu sync.Mutex
	// activeTxns maps every in-flight transaction to its begin LSN, from
	// before its begin record is appended until after its frames learn
	// their commit LSN (see runTxn).
	activeTxns map[uint64]wal.LSN

	ckptMu     sync.Mutex
	ckptTotals CheckpointTotals
	recovered  RecoveryStats // stats of the Reopen that produced this db
}

// validate rejects a configuration no database can run under; Open and
// every reopen path share it.
func (cfg Config) validate() error {
	switch {
	case cfg.PageSize <= 0 || cfg.BufferPages <= 0:
		return fmt.Errorf("spatialjoin: page size and buffer pages must be positive")
	case cfg.FillFactor <= 0 || cfg.FillFactor > 1:
		return fmt.Errorf("spatialjoin: fill factor %g out of (0,1]", cfg.FillFactor)
	case cfg.JoinIndexOrder < 3:
		return fmt.Errorf("spatialjoin: join index order %d < 3", cfg.JoinIndexOrder)
	case cfg.Workers < 0:
		return fmt.Errorf("spatialjoin: negative worker count %d", cfg.Workers)
	case cfg.QueryTimeout < 0:
		return fmt.Errorf("spatialjoin: negative query timeout %v", cfg.QueryTimeout)
	}
	return nil
}

// Open creates an empty database.
func Open(cfg Config) (*Database, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var device storage.Device = storage.NewDisk(cfg.PageSize)
	var fd *fault.Disk
	if cfg.Fault != nil {
		fd = fault.Wrap(device, *cfg.Fault)
		device = fd
	}
	var lg *wal.Log
	if cfg.WAL {
		// The log claims the device's first file, before any collection
		// exists, so recovery can find it without a catalog.
		var err error
		lg, err = wal.Create(device, cfg.WALGroupCommit)
		if err != nil {
			return nil, err
		}
	}
	pool, err := storage.NewBufferPool(device, cfg.BufferPages)
	if err != nil {
		return nil, err
	}
	if cfg.Retry != nil {
		pool.SetRetryPolicy(*cfg.Retry)
	}
	if lg != nil {
		pool.SetWAL(lg)
	}
	db := &Database{
		cfg:         cfg,
		pool:        pool,
		faultDisk:   fd,
		wal:         lg,
		collections: make(map[string]*Collection),
		joinIndices: make(map[string]*JoinIndex),
		nextTxn:     1,
		activeTxns:  make(map[uint64]wal.LSN),
	}
	db.registerMetrics()
	return db, nil
}

// Metrics returns the registry configured at Open, or nil.
func (db *Database) Metrics() *obs.Registry { return db.cfg.Metrics }

// Collection is a named set of spatial objects, stored in a heap file and
// indexed by an R-tree generalization tree. The R-tree lives in memory and
// is derived from the heap: Reopen rebuilds it from a heap scan. Every entry
// is also appended to a backing index file on the simulated disk, but only
// as a scrub target — a tree-strategy query reads and checksum-verifies its
// pages before trusting the index, so a lost or corrupted index page is
// detected (and triggers degradation to the scan strategy) instead of
// silently shaping the result. Nothing reads the entries back.
type Collection struct {
	db        *Database
	name      string
	rel       *relation.Relation
	table     join.Table
	index     *rtree.Tree
	indexFile *storage.HeapFile
}

// collectionSchema is the fixed schema of every collection: an arbitrary
// payload string plus the spatial shape.
func collectionSchema() (relation.Schema, error) {
	return relation.NewSchema(
		relation.Column{Name: "payload", Type: relation.TypeString},
		relation.Column{Name: "shape", Type: relation.TypeGeometry},
	)
}

// CreateCollection makes an empty collection. Names must be unique. Under a
// WAL the creation is a transaction carrying the collection's catalog
// record, so recovery knows which files the collection owns.
func (db *Database) CreateCollection(name string) (*Collection, error) {
	if name == "" {
		return nil, fmt.Errorf("spatialjoin: empty collection name")
	}
	if _, dup := db.collections[name]; dup {
		return nil, fmt.Errorf("spatialjoin: collection %q already exists", name)
	}
	var c *Collection
	err := db.runTxn(func(txn uint64) error {
		sch, err := collectionSchema()
		if err != nil {
			return err
		}
		rel, err := relation.Create(db.pool, name, sch, db.cfg.FillFactor)
		if err != nil {
			return err
		}
		table, err := join.NewTable(rel, 1, db.pool)
		if err != nil {
			return err
		}
		index, err := rtree.New(db.cfg.IndexOptions)
		if err != nil {
			return err
		}
		indexFile, err := storage.NewHeapFile(db.pool, db.cfg.FillFactor)
		if err != nil {
			return err
		}
		c = &Collection{db: db, name: name, rel: rel, table: table, index: index, indexFile: indexFile}
		if db.wal != nil {
			reg := c.registration()
			_, err = db.wal.AppendCatalog(txn, reg.Type, reg.Data)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.collections[name] = c
	db.mu.Unlock()
	return c, nil
}

// registration is the catalog record naming c's files: logged when c is
// created, and carried by every checkpoint manifest after that.
func (c *Collection) registration() wal.Record {
	return wal.Record{Type: wal.RecNewCollection, Data: wal.EncodeNewCollection(wal.NewCollection{
		Name: c.name, HeapFile: c.rel.FileID(), IndexFile: c.indexFile.File(),
	})}
}

// Collection returns the named collection.
func (db *Database) Collection(name string) (*Collection, bool) {
	c, ok := db.collections[name]
	return c, ok
}

// ResetIOStats zeroes the shared buffer pool counters; measurements after a
// reset start from a warm (still-resident) cache. Use DropCache for cold
// measurements.
func (db *Database) ResetIOStats() { db.pool.ResetStats() }

// DropCache flushes and empties the buffer pool so the next query runs
// cold.
func (db *Database) DropCache() error { return db.pool.DropAll() }

// IOStats returns the shared pool's counters since the last reset.
func (db *Database) IOStats() storage.PoolStats { return db.pool.Stats() }

// DiskStats returns the device-level transfer counters, including injected
// fault attempts when the database runs over a fault device.
func (db *Database) DiskStats() storage.DiskStats { return db.pool.Disk().Stats() }

// FaultDisk returns the fault-injecting device the database runs over, or
// nil when Config.Fault was not set. Chaos tests use it to mark pages lost
// or torn mid-run.
func (db *Database) FaultDisk() *fault.Disk { return db.faultDisk }

// Device returns the simulated disk the database runs over. A crash
// harness keeps it across the crash and hands it to Reopen: the device is
// the only state that survives.
func (db *Database) Device() storage.Device { return db.pool.Disk() }

// Flush makes every committed change durable: the log first (write-ahead),
// then all committed dirty pages. Under a WAL it refuses to write back
// pages held by a failed in-flight transaction.
func (db *Database) Flush() error {
	if db.wal != nil {
		if err := db.wal.Sync(); err != nil {
			return err
		}
	}
	return db.pool.Flush()
}

// Close shuts the database down cleanly: the log's group-commit buffer is
// forced durable (even when no dirty frame would otherwise demand a sync),
// every committed dirty page is written back, and all later calls are
// refused. Closing a poisoned database syncs the log — earlier committed
// transactions may still sit in the group-commit buffer — but leaves the
// half-mutated pages for recovery, and reports the poisoning error.
// Closing twice is a no-op.
func (db *Database) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	poisoned := db.poisoned
	db.mu.Unlock()
	if poisoned != nil {
		if db.wal != nil {
			if err := db.wal.Close(); err != nil {
				return err
			}
		}
		return poisoned
	}
	return db.pool.Close()
}

// WALStats returns the write-ahead log's counters; zero when WAL is off.
func (db *Database) WALStats() wal.Stats {
	if db.wal == nil {
		return wal.Stats{}
	}
	return db.wal.Stats()
}

// WALSegments returns the device files the write-ahead log holds, oldest
// first, each with the first page of it a copy of the log must carry; nil
// when WAL is off. Every other file of the device is data.
func (db *Database) WALSegments() []wal.Segment {
	if db.wal == nil {
		return nil
	}
	return db.wal.Segments()
}

// Name returns the collection's name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of stored objects.
func (c *Collection) Len() int { return c.rel.Len() }

// Pages returns the number of disk pages the collection occupies.
func (c *Collection) Pages() int { return c.rel.NumPages() }

// IndexHeight returns the height of the collection's R-tree.
func (c *Collection) IndexHeight() int { return c.index.Height() }

// IndexFileID returns the disk file of the collection's index entries —
// the pages a tree-strategy query scrubs before trusting the R-tree. Chaos
// tests target these pages to simulate index loss.
func (c *Collection) IndexFileID() storage.FileID { return c.indexFile.File() }

// appendIndexEntry appends one R-tree entry (tuple id + exact geometry) to
// the collection's backing index file, the pages a tree query scrubs. The
// file is a scrub target only: no recovery path reads its geometry back.
func (c *Collection) appendIndexEntry(id int, shape Spatial) error {
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[0:], uint64(id))
	rec := relation.EncodeGeometry(idb[:], shape)
	_, err := c.indexFile.Append(rec)
	return err
}

// Insert stores the object with an arbitrary payload string and returns its
// ID. Any precomputed join index involving this collection is maintained
// incrementally — at the full cost the paper warns about. Under a WAL the
// whole multi-page update (heap insert + R-tree entry + join-index
// maintenance) is one transaction: a crash at any point leaves either all
// of it or none of it.
func (c *Collection) Insert(shape Spatial, payload string) (int, error) {
	if shape == nil {
		return 0, fmt.Errorf("spatialjoin: nil shape")
	}
	var id int
	err := c.db.runTxn(func(uint64) error {
		var err error
		id, err = c.rel.Insert(relation.Tuple{payload, shape})
		if err != nil {
			return err
		}
		c.index.Insert(shape, id)
		if err := c.appendIndexEntry(id, shape); err != nil {
			return err
		}
		return c.db.maintainJoinIndices(c, id, shape)
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Get returns the object's shape and payload.
func (c *Collection) Get(id int) (Spatial, string, error) {
	t, err := c.rel.Get(id)
	if err != nil {
		return nil, "", err
	}
	shape, err := c.rel.Schema().SpatialValue(t, 1)
	if err != nil {
		return nil, "", err
	}
	return shape, t[0].(string), nil
}
