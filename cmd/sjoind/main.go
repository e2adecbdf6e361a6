// Command sjoind is the spatial query daemon: it loads a synthetic
// workload (or accepts the flags' sizing of one), builds the overlaps
// join index, and serves the internal/wire framed protocol with
// admission control and graceful shutdown.
//
// Usage:
//
//	sjoind -addr 127.0.0.1:7654 -metrics-addr 127.0.0.1:7655
//	sjoind -rects 5000 -max-queries 8 -query-timeout 2s
//
// SIGINT/SIGTERM begins a graceful drain: in-flight queries finish and
// stream their results, new work is refused with typed SHUTTING_DOWN
// verdicts, and the process exits once every session unwinds (or the
// -drain-timeout forces it), closing the database so the last
// group-commit buffer is durable.
//
// -workers (default 1) is Config.Workers: the goroutines one scan-strategy
// join fans out over. A server already runs one query per session at once,
// so the default leaves the cores to the sessions; with two sessions on
// two cores, a scan join at 2 workers took longer and read more pages than
// at 1.
//
// With -wal, -checkpoint-every runs a periodic truncating fuzzy
// checkpoint, and SIGUSR1 exports a replica-seeding snapshot to
// -snapshot-path (written atomically: temp file, then rename). A fresh
// daemon boots from such a file with -seed-from instead of generating
// the workload; the startup banner's "dataset fingerprint" line is
// identical between a source and its seeded replicas.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"spatialjoin"
	"spatialjoin/cmd/internal/cli"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/repl"
	"spatialjoin/internal/server"
	"spatialjoin/internal/storage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sjoind:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7654", "wire-protocol listen address")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and pprof on this address")

	rects := flag.Int("rects", 2000, "rectangles per collection in the synthetic workload")
	seed := flag.Int64("seed", 42, "workload generator seed")
	world := flag.Float64("world", 10000, "world square side length")

	workers := flag.Int("workers", 1, "goroutines per scan-strategy join (tree and index joins use one); 1 leaves the cores to concurrent sessions, beside which a fanned-out scan runs slower and reads more pages")
	bufferPages := flag.Int("buffer-pages", 256, "buffer pool capacity in pages")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline (0 = none); expiry answers TIMEOUT")
	slowQuery := flag.Duration("slow-query", 0, "record queries slower than this in the flight recorder as slow_query events (0 = off)")

	maxConns := flag.Int("max-conns", server.DefaultMaxConns, "concurrent session limit; excess connections are refused SERVER_BUSY")
	maxQueries := flag.Int("max-queries", 0, "concurrent query limit (0 = 4×GOMAXPROCS); excess queries are shed SERVER_BUSY")
	admitWait := flag.Duration("admit-wait", 0, "how long a query may wait for an admission slot before being shed")
	batch := flag.Int("batch", server.DefaultBatchSize, "results streamed per response frame")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after SIGINT/SIGTERM")

	faultSeed := flag.Int64("fault-seed", 0, "enable the fault-injecting device with this seed (0 = healthy disk)")
	faultReadRate := flag.Float64("fault-read-rate", 0, "with -fault-seed: transient read fault probability")
	readLatency := flag.Duration("read-latency", 0, "with -fault-seed: injected device read latency")

	useWAL := flag.Bool("wal", false, "run on a write-ahead-logged database (required for checkpoints and snapshots)")
	walGroup := flag.Int("wal-group", 64, "with -wal: group-commit size")
	ckptEvery := flag.Duration("checkpoint-every", 0, "with -wal: take a truncating fuzzy checkpoint this often (0 = never)")
	snapPath := flag.String("snapshot-path", "", "with -wal: write a replica-seeding snapshot to this file on SIGUSR1")
	seedFrom := flag.String("seed-from", "", "seed the dataset from a snapshot file instead of generating it (implies -wal)")

	replicateFrom := flag.String("replicate-from", "", "run as a continuously replicating read-only replica of the primary at this address (implies -wal)")
	maxLag := flag.Duration("max-lag", 0, "with -replicate-from: answer STALE when nothing has been heard from the primary for this long (0 = never)")
	maxLagBytes := flag.Int64("max-lag-bytes", 0, "with -replicate-from: answer STALE when trailing the primary by more than this many log bytes (0 = never)")
	flag.Parse()

	reg := obs.NewRegistry()
	cfg := spatialjoin.DefaultConfig()
	cfg.Workers = *workers
	cfg.BufferPages = *bufferPages
	cfg.QueryTimeout = *queryTimeout
	cfg.SlowQuery = *slowQuery
	cfg.Metrics = reg
	cfg.WAL = *useWAL || *seedFrom != "" || *replicateFrom != ""
	cfg.WALGroupCommit = *walGroup
	if *faultSeed != 0 {
		cfg.Fault = &fault.Options{
			Seed:              *faultSeed,
			TransientReadRate: *faultReadRate,
			ReadLatency:       *readLatency,
		}
		cfg.Retry = &storage.RetryPolicy{MaxAttempts: 10, Seed: *faultSeed}
	}
	if (*ckptEvery != 0 || *snapPath != "") && !cfg.WAL {
		return fmt.Errorf("-checkpoint-every and -snapshot-path require -wal")
	}
	if *replicateFrom != "" {
		switch {
		case cfg.Fault != nil:
			return fmt.Errorf("-replicate-from cannot run with fault injection (delta application patches the raw disk)")
		case *seedFrom != "":
			return fmt.Errorf("-replicate-from seeds itself over the wire; drop -seed-from")
		case *snapPath != "" || *ckptEvery != 0:
			return fmt.Errorf("-replicate-from owns the database lifecycle; drop -snapshot-path and -checkpoint-every")
		}
		return runReplica(reg, cfg, *replicateFrom, *maxLag, *maxLagBytes, *addr, *metricsAddr, serveOpts{
			maxConns: *maxConns, maxQueries: *maxQueries, admitWait: *admitWait,
			batch: *batch, drainTimeout: *drainTimeout,
		})
	}

	// The dataset is loaded (or seeded) and indexed before serving starts:
	// the server's read paths are lock-free precisely because nothing
	// mutates the database once Serve begins — the checkpointer and
	// snapshot exporter only flush and read.
	start := time.Now()
	var db *spatialjoin.Database
	var r, s *spatialjoin.Collection
	if *seedFrom != "" {
		sdb, info, err := cli.SeedFromFile(cfg, *seedFrom)
		if err != nil {
			return err
		}
		db = sdb
		var ok bool
		if r, ok = db.Collection("r"); !ok {
			return fmt.Errorf("snapshot %s has no collection r", *seedFrom)
		}
		if s, ok = db.Collection("s"); !ok {
			return fmt.Errorf("snapshot %s has no collection s", *seedFrom)
		}
		rec := db.RecoveryInfo()
		fmt.Printf("sjoind: seeded from %s (%d pages, checkpoint LSN %d; recovery read %d log pages from page %d) in %v\n",
			*seedFrom, info.Pages, info.CheckpointLSN, rec.LogPagesRead, rec.HeadPage, time.Since(start).Round(time.Millisecond))
	} else {
		var err error
		db, err = spatialjoin.Open(cfg)
		if err != nil {
			return err
		}
		w := geom.NewRect(0, 0, *world, *world)
		rng := rand.New(rand.NewSource(*seed))
		r, err = cli.Load(db, "r", datagen.UniformRects(rng, *rects, w, 2, w.MaxX/100))
		if err != nil {
			return err
		}
		s, err = cli.Load(db, "s", datagen.ClusteredRects(rng, *rects, 16, w, w.MaxX/8, w.MaxX/150))
		if err != nil {
			return err
		}
		fmt.Printf("sjoind: loaded collections r and s (%d rects each) in %v\n",
			*rects, time.Since(start).Round(time.Millisecond))
	}
	if !db.HasJoinIndex(r, s, spatialjoin.Overlaps()) {
		if _, _, err := db.BuildJoinIndex(r, s, spatialjoin.Overlaps()); err != nil {
			return err
		}
	}
	fp, err := cli.Fingerprint(r, s)
	if err != nil {
		return err
	}
	fmt.Printf("sjoind: dataset fingerprint %016x\n", fp)

	// snapMu serializes the periodic checkpointer against SIGUSR1 snapshot
	// exports and replication snapshot cuts, so an image is never cut while
	// a concurrent checkpoint is moving the redo floor.
	var snapMu sync.Mutex
	stop := make(chan struct{})
	defer close(stop)

	// A WAL-backed primary serves replication streams: WAL tails plus
	// incremental snapshot deltas, with snapshot cuts checkpointing through
	// snapMu like every other image.
	var src *repl.Source
	if cfg.WAL {
		src, err = repl.NewSource(db, repl.SourceOptions{
			Checkpoint: func() error {
				snapMu.Lock()
				defer snapMu.Unlock()
				_, err := db.Checkpoint()
				return err
			},
			Metrics: reg,
		})
		if err != nil {
			return err
		}
		defer src.Close()
		fmt.Println("sjoind: serving replication (WAL tail + snapshot deltas)")
	}
	if cfg.WAL && *ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				snapMu.Lock()
				// Advance the replication retention pin first: the log then
				// truncates up to what the delta tracker has seen, and a
				// replica left further behind resyncs from a delta.
				if aerr := src.Advance(); aerr != nil {
					fmt.Fprintln(os.Stderr, "sjoind: repl advance:", aerr)
				}
				cs, err := db.Checkpoint()
				snapMu.Unlock()
				if err != nil {
					fmt.Fprintln(os.Stderr, "sjoind: checkpoint:", err)
					return
				}
				fmt.Printf("sjoind: checkpoint at LSN %d: %d pages flushed, %d log pages truncated in %v\n",
					cs.BeginLSN, cs.PagesFlushed, cs.PagesTruncated, cs.Duration.Round(time.Microsecond))
			}
		}()
	}
	if cfg.WAL && *snapPath != "" {
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-usr1:
				}
				snapMu.Lock()
				info, err := cli.ExportSnapshotFile(db, *snapPath)
				snapMu.Unlock()
				if err != nil {
					fmt.Fprintln(os.Stderr, "sjoind: snapshot:", err)
					continue
				}
				fmt.Printf("sjoind: snapshot written to %s (%d pages, checkpoint LSN %d)\n",
					*snapPath, info.Pages, info.CheckpointLSN)
			}
		}()
		fmt.Printf("sjoind: SIGUSR1 writes a snapshot to %s\n", *snapPath)
	}

	stopMetrics, err := cli.ServeMetrics(os.Stdout, "sjoind", *metricsAddr, reg)
	if err != nil {
		return err
	}
	defer stopMetrics()

	opts := server.Options{
		MaxConns:   *maxConns,
		MaxQueries: *maxQueries,
		AdmitWait:  *admitWait,
		BatchSize:  *batch,
		Metrics:    reg,
	}
	if src != nil {
		opts.Repl = src
	}
	srv := server.New(db, opts)
	return serveAndDrain(srv, *addr, *drainTimeout, func() error {
		if src != nil {
			src.Close()
		}
		// An orderly close forces the last group-commit buffer durable and
		// writes back every committed page.
		if err := db.Close(); err != nil {
			return fmt.Errorf("closing database: %w", err)
		}
		return nil
	})
}

// serveOpts carries the admission flags shared by primary and replica
// serving.
type serveOpts struct {
	maxConns     int
	maxQueries   int
	admitWait    time.Duration
	batch        int
	drainTimeout time.Duration
}

// runReplica runs the daemon as a continuously replicating read-only
// replica: a Follower seeds itself from the primary and tails its log,
// while the server answers SELECT/JOIN from the follower's current
// database — or with a typed STALE verdict when the lag policy says the
// replica is too far behind to trust.
func runReplica(reg *obs.Registry, cfg spatialjoin.Config, from string, maxLag time.Duration, maxLagBytes int64, addr, metricsAddr string, so serveOpts) error {
	f, err := repl.NewFollower(repl.FollowerOptions{
		Addr:        from,
		Config:      cfg,
		MaxLagBytes: maxLagBytes,
		MaxLagAge:   maxLag,
		Metrics:     reg,
	})
	if err != nil {
		return err
	}
	f.Start()
	fmt.Printf("sjoind: replicating from %s, waiting for the seed\n", from)

	// Metrics come up before the seed wait: NewFollower registers the
	// spatialjoin_repl_* gauges eagerly, so the very first scrape shows the
	// replica seeding (state gauge at 0, zero lag) even while the primary
	// is still unreachable. Starting the listener after the wait would make
	// the replica unobservable during exactly the phase an operator most
	// wants to watch.
	stopMetrics, err := cli.ServeMetrics(os.Stdout, "sjoind", metricsAddr, reg)
	if err != nil {
		f.Close()
		return err
	}
	defer stopMetrics()

	// Block serving until the first seed lands, then banner the dataset
	// fingerprint — identical to the primary's, which is what the chaos
	// smoke diffs.
	start := time.Now()
	for {
		db, release, aerr := f.Acquire()
		if aerr == nil {
			r, okR := db.Collection("r")
			s, okS := db.Collection("s")
			rec := db.RecoveryInfo()
			var fp uint64
			var ferr error
			if okR && okS {
				fp, ferr = cli.Fingerprint(r, s)
			}
			release()
			if !okR || !okS {
				f.Close()
				return fmt.Errorf("replica seeded without collections r and s")
			}
			if ferr != nil {
				f.Close()
				return ferr
			}
			fmt.Printf("sjoind: seeded from %s (recovery read %d log pages from page %d) in %v\n",
				from, rec.LogPagesRead, rec.HeadPage, time.Since(start).Round(time.Millisecond))
			fmt.Printf("sjoind: dataset fingerprint %016x\n", fp)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	srv := server.New(nil, server.Options{
		MaxConns:   so.maxConns,
		MaxQueries: so.maxQueries,
		AdmitWait:  so.admitWait,
		BatchSize:  so.batch,
		Metrics:    reg,
		DB:         f.Acquire,
	})
	fmt.Println("sjoind: serving as read-only replica (writes and replication streams refused)")
	return serveAndDrain(srv, addr, so.drainTimeout, func() error {
		f.Close()
		return nil
	})
}

// serveAndDrain listens, serves until SIGINT/SIGTERM, drains gracefully,
// and runs the close hook once every session has unwound. SIGQUIT dumps
// the flight recorder to stderr without stopping anything — the live
// post-incident snapshot for a daemon with no metrics listener.
func serveAndDrain(srv *server.Server, addr string, drainTimeout time.Duration, closeAll func() error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("sjoind: serving wire protocol on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "sjoind: SIGQUIT: flight recorder dump")
			if err := obs.WriteEventsJSON(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "sjoind: event dump:", err)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case got := <-sig:
		fmt.Printf("sjoind: %v: draining (up to %v)\n", got, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sjoind: forced exit:", err)
		}
		if err := <-serveErr; err != nil && err != server.ErrServerClosed {
			return err
		}
		if err := closeAll(); err != nil {
			return err
		}
		fmt.Println("sjoind: drained, bye")
		return nil
	}
}
