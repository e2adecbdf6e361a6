package spatialjoin

// Crash-sweep harness: a scripted update workload is killed at every
// injectable point — every physical write ordinal and every occurrence of
// every named protocol crash point — then the device is rebooted and the
// database reopened through WAL recovery. After each crash, the recovered
// database must be byte-identical, across all four strategies (scan, tree,
// joinindex, z-order), to a committed prefix of the workload: either every
// step that returned before the crash, or additionally the step that was
// in flight (a crash can land after the commit record is durable but
// before the call returns). Nothing else is admissible.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"testing"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
)

// crashWorld bounds every workload rectangle; the z-order grid is built
// over it.
var crashWorld = NewRect(0, 0, 1000, 1000)

const crashZLevel = 4

// crashConfig is the small WAL-enabled configuration the harness runs: a
// fault device for crash injection, pages small enough that single inserts
// span multiple physical writes.
func crashConfig(workers, groupCommit int) Config {
	cfg := DefaultConfig()
	cfg.PageSize = 512
	cfg.BufferPages = 32
	cfg.Workers = workers
	cfg.WAL = true
	cfg.WALGroupCommit = groupCommit
	cfg.Fault = &fault.Options{Seed: 1}
	return cfg
}

// crashRect returns the i-th deterministic workload rectangle, spread so
// that some pairs overlap and some do not.
func crashRect(i int) Rect {
	x := float64((i * 137) % 900)
	y := float64((i * 211) % 900)
	w := float64(20 + (i*53)%80)
	h := float64(20 + (i*29)%80)
	return NewRect(x, y, x+w, y+h)
}

// crashModel is the expected committed state after a prefix of workload
// steps.
type crashModel struct {
	createdR, createdS bool
	rectsR, rectsS     []Rect
	hasIndex           bool
}

// expectedMatches brute-forces r ⋈overlaps s over the model, sorted
// canonically like every strategy's output.
func (m crashModel) expectedMatches() []Match {
	var ms []Match
	for i, a := range m.rectsR {
		for j, b := range m.rectsS {
			if a.Intersects(b) {
				ms = append(ms, Match{R: i, S: j})
			}
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].R != ms[j].R {
			return ms[i].R < ms[j].R
		}
		return ms[i].S < ms[j].S
	})
	return ms
}

// crashStep is one scripted update.
type crashStep struct {
	name  string
	run   func(db *Database) error
	model crashModel // expected committed state once this step commits
}

// crashSteps returns the scripted workload: collection creation,
// interleaved inserts, an explicit flush, a join-index build, and more
// inserts exercising incremental join-index maintenance — each step one
// WAL transaction (Flush excepted).
func crashSteps() []crashStep {
	var steps []crashStep
	m := crashModel{}
	add := func(name string, run func(db *Database) error) {
		steps = append(steps, crashStep{name: name, run: run, model: m})
	}
	insertR := func(i int) func(db *Database) error {
		return func(db *Database) error {
			c, _ := db.Collection("r")
			_, err := c.Insert(crashRect(i), fmt.Sprintf("r%d", i))
			return err
		}
	}
	insertS := func(i int) func(db *Database) error {
		return func(db *Database) error {
			c, _ := db.Collection("s")
			_, err := c.Insert(crashRect(i), fmt.Sprintf("s%d", i))
			return err
		}
	}

	m.createdR = true
	add("create-r", func(db *Database) error {
		_, err := db.CreateCollection("r")
		return err
	})
	m.createdS = true
	add("create-s", func(db *Database) error {
		_, err := db.CreateCollection("s")
		return err
	})
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			m.rectsR = append(append([]Rect(nil), m.rectsR...), crashRect(i))
			add(fmt.Sprintf("insert-r%d", i), insertR(i))
		} else {
			m.rectsS = append(append([]Rect(nil), m.rectsS...), crashRect(i))
			add(fmt.Sprintf("insert-s%d", i), insertS(i))
		}
	}
	add("flush-1", func(db *Database) error { return db.Flush() })
	m.hasIndex = true
	add("build-joinindex", func(db *Database) error {
		r, _ := db.Collection("r")
		s, _ := db.Collection("s")
		_, _, err := db.BuildJoinIndex(r, s, Overlaps())
		return err
	})
	for i := 8; i < 15; i++ {
		if i%2 == 0 {
			m.rectsR = append(append([]Rect(nil), m.rectsR...), crashRect(i))
			add(fmt.Sprintf("insert-r%d", i), insertR(i))
		} else {
			m.rectsS = append(append([]Rect(nil), m.rectsS...), crashRect(i))
			add(fmt.Sprintf("insert-s%d", i), insertS(i))
		}
	}
	add("flush-2", func(db *Database) error { return db.Flush() })
	return steps
}

// checkpointCrashSteps is the workload with fuzzy checkpoints and a
// snapshot export woven through it: a non-truncating checkpoint between the
// two insert batches (so a from-LSN-0 recovery can still see the whole
// log), another after the index build, and a truncating snapshot export at
// the end. The checkpoints add no observable state — every step keeps the
// model of the step before it — but they move the redo floor, so crashes
// after them exercise bounded recovery's skip logic.
func checkpointCrashSteps() []crashStep {
	base := crashSteps()
	ckpt := func(name string) crashStep {
		return crashStep{name: name, run: func(db *Database) error {
			_, err := db.checkpoint(false)
			return err
		}}
	}
	var steps []crashStep
	for _, st := range base {
		steps = append(steps, st)
		switch st.name {
		case "insert-s3", "build-joinindex":
			c := ckpt("checkpoint-after-" + st.name)
			c.model = st.model
			steps = append(steps, c)
		}
	}
	export := crashStep{name: "export-snapshot", run: func(db *Database) error {
		_, err := db.ExportSnapshot(io.Discard)
		return err
	}}
	export.model = steps[len(steps)-1].model
	steps = append(steps, export)
	return steps
}

// stepsWithCheckpointEvery inserts a fuzzy checkpoint — truncating or not —
// after every k-th workload step; k <= 0 returns the plain workload. The
// fuzzer sweeps k to move the checkpoint boundary across every step
// transition.
func stepsWithCheckpointEvery(k int, truncate bool) []crashStep {
	base := crashSteps()
	if k <= 0 {
		return base
	}
	var steps []crashStep
	for i, st := range base {
		steps = append(steps, st)
		if (i+1)%k == 0 {
			c := crashStep{
				name: fmt.Sprintf("checkpoint-%d", i),
				run: func(db *Database) error {
					_, err := db.checkpoint(truncate)
					return err
				},
				model: st.model,
			}
			steps = append(steps, c)
		}
	}
	return steps
}

// collectionRects reads every stored shape of a recovered collection in ID
// order.
func collectionRects(c *Collection) ([]Rect, error) {
	out := make([]Rect, c.Len())
	for id := 0; id < c.Len(); id++ {
		shape, _, err := c.Get(id)
		if err != nil {
			return nil, err
		}
		r, ok := shape.(Rect)
		if !ok {
			return nil, fmt.Errorf("object %d is %T, want Rect", id, shape)
		}
		out[id] = r
	}
	return out, nil
}

// stateMatches reports whether db's observable state equals the model
// byte-for-byte across all four strategies. A nil error with false means a
// clean mismatch; an error means the database failed to answer, which the
// sweep treats as a verification failure at the call site.
func stateMatches(db *Database, m crashModel) (bool, error) {
	r, okR := db.Collection("r")
	s, okS := db.Collection("s")
	if okR != m.createdR || okS != m.createdS {
		return false, nil
	}
	if !m.createdR || !m.createdS {
		return true, nil // nothing else observable yet
	}
	if r.Len() != len(m.rectsR) || s.Len() != len(m.rectsS) {
		return false, nil
	}
	gotR, err := collectionRects(r)
	if err != nil {
		return false, err
	}
	gotS, err := collectionRects(s)
	if err != nil {
		return false, err
	}
	for i := range gotR {
		if gotR[i] != m.rectsR[i] {
			return false, nil
		}
	}
	for i := range gotS {
		if gotS[i] != m.rectsS[i] {
			return false, nil
		}
	}
	want := matchKey(m.expectedMatches())
	for _, strat := range []Strategy{ScanStrategy, TreeStrategy} {
		ms, _, err := db.Join(r, s, Overlaps(), strat)
		if err != nil {
			return false, fmt.Errorf("%v join: %w", strat, err)
		}
		if matchKey(ms) != want {
			return false, nil
		}
	}
	if db.HasJoinIndex(r, s, Overlaps()) != m.hasIndex {
		return false, nil // the index build is not, or is, in this prefix
	}
	if m.hasIndex {
		ms, _, err := db.Join(r, s, Overlaps(), IndexStrategy)
		if err != nil {
			return false, fmt.Errorf("joinindex join: %w", err)
		}
		if matchKey(ms) != want {
			return false, nil
		}
	}
	zms, err := ZOverlapJoinCtx(context.Background(), gotR, gotS, crashWorld, crashZLevel, db.cfg.Workers)
	if err != nil {
		return false, fmt.Errorf("zorder join: %w", err)
	}
	if matchKey(zms) != want {
		return false, nil
	}
	return true, nil
}

// runToCrash opens a fresh database, arms the given schedule and runs the
// workload until the injected crash unwinds it. It returns the database
// (its device is what survives), the number of steps that returned, and the
// crash — nil when the schedule never fired and the workload ran through.
func runToCrash(t *testing.T, cfg Config, steps []crashStep, label string, arm func(fd *fault.Disk)) (db *Database, completed int, crash *fault.Crash) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if arm != nil {
		arm(db.FaultDisk())
	}
	func() {
		defer func() {
			if v := recover(); v != nil {
				c, ok := fault.AsCrash(v)
				if !ok {
					panic(v)
				}
				crash = c
			}
		}()
		for _, st := range steps {
			if err := st.run(db); err != nil {
				t.Fatalf("%s: step %s: %v", label, st.name, err)
			}
			completed++
		}
	}()
	fault.DisarmCrashPoints()
	return db, completed, crash
}

// runCrashCase runs the workload to the injected crash, reboots and
// reopens, and asserts the recovered state equals an admissible committed
// prefix. When the bounded recovery reports an untruncated log (BaseLSN 0),
// the same device is recovered a second time with checkpoints ignored — a
// full replay from LSN 0 — and must reconstruct the identical state: the
// checkpoint's skip decisions may never change the outcome, only the work.
// It returns the bounded recovery's stats for callers that assert on
// accounting.
func runCrashCase(t *testing.T, cfg Config, steps []crashStep, label string, arm func(fd *fault.Disk)) RecoveryStats {
	t.Helper()
	db, completed, crash := runToCrash(t, cfg, steps, label, arm)
	fd := db.FaultDisk()
	if crash == nil {
		// The schedule never fired: the workload ran to completion; the
		// live database must hold the final state.
		ok, err := stateMatches(db, steps[len(steps)-1].model)
		if err != nil {
			t.Fatalf("%s: verifying uncrashed state: %v", label, err)
		}
		if !ok {
			t.Fatalf("%s: uncrashed database diverges from the workload model", label)
		}
		return RecoveryStats{}
	}
	fd.Reboot()
	rdb, stats, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("%s: Reopen after crash in step %s: %v", label, steps[completed].name, err)
	}
	// Admissible states: every step before the in-flight one committed, and
	// the in-flight step may or may not have made its commit record durable.
	var candidates []crashModel
	if completed == 0 {
		candidates = append(candidates, crashModel{})
	} else {
		candidates = append(candidates, steps[completed-1].model)
	}
	if completed < len(steps) {
		candidates = append(candidates, steps[completed].model)
	}
	for _, m := range candidates {
		ok, err := stateMatches(rdb, m)
		if err != nil {
			t.Fatalf("%s: verifying recovered state (crash in step %s): %v",
				label, steps[completed].name, err)
		}
		if ok {
			if stats.BaseLSN == 0 {
				// Nothing was truncated away: a full from-LSN-0 replay must
				// land on the same committed prefix the bounded pass chose.
				fdb, fstats, err := reopenWith(cfg, db.Device(), true, 0)
				if err != nil {
					t.Fatalf("%s: full (checkpoint-ignoring) recovery: %v", label, err)
				}
				if fstats.RecordsSkipped != 0 {
					t.Fatalf("%s: full recovery skipped %d records", label, fstats.RecordsSkipped)
				}
				fok, err := stateMatches(fdb, m)
				if err != nil {
					t.Fatalf("%s: verifying full-recovery state: %v", label, err)
				}
				if !fok {
					t.Fatalf("%s: bounded and full recovery disagree (crash in step %s, stats %+v vs %+v)",
						label, steps[completed].name, stats, fstats)
				}
			}
			return stats
		}
	}
	r, _ := rdb.Collection("r")
	s, _ := rdb.Collection("s")
	lenOf := func(c *Collection) int {
		if c == nil {
			return -1
		}
		return c.Len()
	}
	t.Fatalf("%s: recovered state matches no admissible prefix (crash in step %s, completed %d, |r|=%d, |s|=%d, stats %+v)",
		label, steps[completed].name, completed, lenOf(r), lenOf(s), stats)
	return stats
}

// dryRunWrites runs the workload uncrashed and returns the total physical
// write count — the number of injectable write ordinals.
func dryRunWrites(t *testing.T, cfg Config, steps []crashStep) int64 {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if err := st.run(db); err != nil {
			t.Fatalf("dry run step %s: %v", st.name, err)
		}
	}
	return db.DiskStats().Writes
}

// TestCrashSweepWriteCounts kills the workload at every physical write
// ordinal, at both worker counts, and requires recovery to an admissible
// committed prefix every time.
func TestCrashSweepWriteCounts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := crashConfig(workers, 1)
			writes := dryRunWrites(t, cfg, crashSteps())
			if writes < 20 {
				t.Fatalf("workload only performs %d writes; the sweep is vacuous", writes)
			}
			for n := int64(1); n <= writes; n++ {
				n := n
				runCrashCase(t, cfg, crashSteps(), fmt.Sprintf("write=%d", n), func(fd *fault.Disk) {
					fd.SetCrashAfterWrites(n)
				})
			}
		})
	}
}

// TestCrashSweepCheckpointWriteCounts kills the checkpointing workload at
// every physical write ordinal: crashes land before, inside, and after the
// fuzzy checkpoints and the snapshot export, and every recovery — bounded
// by the checkpoint and, where the log survives whole, a second full replay
// from LSN 0 — must land on the same admissible committed prefix.
func TestCrashSweepCheckpointWriteCounts(t *testing.T) {
	cfg := crashConfig(1, 1)
	writes := dryRunWrites(t, cfg, checkpointCrashSteps())
	if writes < 20 {
		t.Fatalf("workload only performs %d writes; the sweep is vacuous", writes)
	}
	skipped := int64(0)
	for n := int64(1); n <= writes; n++ {
		n := n
		stats := runCrashCase(t, cfg, checkpointCrashSteps(), fmt.Sprintf("ckpt-write=%d", n),
			func(fd *fault.Disk) { fd.SetCrashAfterWrites(n) })
		skipped += stats.RecordsSkipped
	}
	// Late crashes recover through the checkpoint; redo bounding must have
	// provably saved work somewhere in the sweep.
	if skipped == 0 {
		t.Error("no sweep case skipped a record: checkpoint bounding never engaged")
	}
}

// TestCrashSweepNamedPoints kills the workload at every occurrence of every
// named protocol crash point (transaction begin/mutate/log/commit and the
// WAL sync steps).
func TestCrashSweepNamedPoints(t *testing.T) {
	cfg := crashConfig(1, 1)
	// Discover the points and their occurrence counts with a recording dry
	// run.
	fault.StartCrashPointRecording()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range crashSteps() {
		if err := st.run(db); err != nil {
			t.Fatalf("recording run step %s: %v", st.name, err)
		}
	}
	counts := fault.RecordedCrashPoints()
	fault.DisarmCrashPoints()
	if len(counts) < 4 {
		t.Fatalf("only %d named crash points recorded: %v", len(counts), counts)
	}
	points := make([]string, 0, len(counts))
	for p := range counts {
		points = append(points, p)
	}
	sort.Strings(points)
	for _, workers := range []int{1, 4} {
		wcfg := crashConfig(workers, 1)
		for _, point := range points {
			for k := 1; k <= counts[point]; k++ {
				point, k := point, k
				runCrashCase(t, wcfg, crashSteps(), fmt.Sprintf("workers=%d/%s#%d", workers, point, k),
					func(*fault.Disk) { fault.ArmCrashPoint(point, k) })
			}
		}
	}
}

// TestCrashSweepCheckpointNamedPoints kills the checkpointing workload at
// every occurrence of every named crash point — which now includes the
// checkpoint protocol's begin/flush/end markers and the snapshot export —
// and requires recovery to an admissible committed prefix every time.
func TestCrashSweepCheckpointNamedPoints(t *testing.T) {
	cfg := crashConfig(1, 1)
	fault.StartCrashPointRecording()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range checkpointCrashSteps() {
		if err := st.run(db); err != nil {
			t.Fatalf("recording run step %s: %v", st.name, err)
		}
	}
	counts := fault.RecordedCrashPoints()
	fault.DisarmCrashPoints()
	for _, want := range []string{"checkpoint.begin", "checkpoint.flush-page", "checkpoint.end", "snapshot.export"} {
		if counts[want] == 0 {
			t.Fatalf("checkpoint workload never reached crash point %q (recorded: %v)", want, counts)
		}
	}
	points := make([]string, 0, len(counts))
	for p := range counts {
		points = append(points, p)
	}
	sort.Strings(points)
	for _, point := range points {
		for k := 1; k <= counts[point]; k++ {
			point, k := point, k
			runCrashCase(t, cfg, checkpointCrashSteps(), fmt.Sprintf("ckpt/%s#%d", point, k),
				func(*fault.Disk) { fault.ArmCrashPoint(point, k) })
		}
	}
}

// TestCrashGroupCommitPrefix checks the weaker guarantee of group commit:
// a crash may lose the newest unsynced transactions, but what survives is
// always a committed prefix of the workload — never a corrupt or reordered
// state.
func TestCrashGroupCommitPrefix(t *testing.T) {
	cfg := crashConfig(1, 4)
	writes := dryRunWrites(t, cfg, crashSteps())
	steps := crashSteps()
	for n := int64(1); n <= writes; n += 3 {
		label := fmt.Sprintf("group-commit write=%d", n)
		db, _, crash := runToCrash(t, cfg, steps, label, func(fd *fault.Disk) { fd.SetCrashAfterWrites(n) })
		if crash == nil {
			continue
		}
		db.FaultDisk().Reboot()
		rdb, _, err := Reopen(cfg, db.Device())
		if err != nil {
			t.Fatalf("%s: Reopen: %v", label, err)
		}
		matched := false
		for j := -1; j < len(steps) && !matched; j++ {
			m := crashModel{}
			if j >= 0 {
				m = steps[j].model
			}
			ok, err := stateMatches(rdb, m)
			if err != nil {
				t.Fatalf("%s: verify: %v", label, err)
			}
			matched = ok
		}
		if !matched {
			t.Fatalf("%s: recovered state is not any committed prefix", label)
		}
	}
}

// tornAppendSteps is the workload behind TestCrashSweepTornAppendedPage:
// r's heap page is dirty when a fuzzy checkpoint begins, is flushed by the
// checkpoint's sweep, and is then re-dirtied by three more inserts before a
// flush writes it back again. All of the page's older log records lie below
// the checkpoint's begin and its dirty-page table does not list it, so
// bounded recovery skips them: what rebuilds the page when that last
// write-back is torn must lie above the checkpoint — the image the first
// re-dirtying insert logs because the sweep left the frame clean (invariant
// I1), with the other two inserts' appends on top.
func tornAppendSteps() (steps []crashStep, checkpoint int) {
	base := crashSteps()
	for _, st := range base {
		if st.name == "flush-1" {
			break
		}
		steps = append(steps, st)
	}
	m := steps[len(steps)-1].model
	checkpoint = len(steps)
	steps = append(steps, crashStep{name: "checkpoint", model: m, run: func(db *Database) error {
		_, err := db.checkpoint(false)
		return err
	}})
	for i := 6; i < 9; i++ {
		i := i
		m.rectsR = append(append([]Rect(nil), m.rectsR...), crashRect(i))
		steps = append(steps, crashStep{name: fmt.Sprintf("insert-r%d", i), model: m, run: func(db *Database) error {
			c, _ := db.Collection("r")
			_, err := c.Insert(crashRect(i), fmt.Sprintf("r%d", i))
			return err
		}})
	}
	steps = append(steps, crashStep{name: "flush", model: m, run: func(db *Database) error { return db.Flush() }})
	return steps, checkpoint
}

// isLogFile reports whether f is one of the files db's log writes.
func isLogFile(db *Database, f storage.FileID) bool {
	_, ok := db.logFiles()[f]
	return ok
}

// TestCrashSweepTornAppendedPage kills tornAppendSteps at every physical
// write after its checkpoint and looks at the crashes whose doomed, torn
// write is a data page: recovery bounded by the checkpoint and recovery
// from LSN 0 must both rebuild the page and agree on the committed prefix —
// at one worker and four, syncing every commit and grouping four. Under
// group commit the prefix may end before the step in flight; it may never
// be anything but a prefix.
func TestCrashSweepTornAppendedPage(t *testing.T) {
	steps, checkpoint := tornAppendSteps()
	models := func(j int) crashModel {
		if j < 0 {
			return crashModel{}
		}
		return steps[j].model
	}
	for _, workers := range []int{1, 4} {
		for _, group := range []int{1, 4} {
			cfg := crashConfig(workers, group)
			dry, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runSteps(t, dry, steps)
			writes := dry.DiskStats().Writes
			r, _ := dry.Collection("r")
			heap := storage.PageID{File: r.rel.FileID(), Page: 0}

			tornHeap := false
			for n := int64(1); n <= writes; n++ {
				n := n
				label := fmt.Sprintf("workers=%d/group=%d/write=%d", workers, group, n)
				db, completed, crash := runToCrash(t, cfg, steps, label, func(fd *fault.Disk) { fd.SetCrashAfterWrites(n) })
				if crash == nil || completed <= checkpoint || isLogFile(db, crash.Page.File) {
					continue
				}
				tornHeap = tornHeap || crash.Page == heap
				db.FaultDisk().Reboot()
				rdb, stats, err := Reopen(cfg, db.Device())
				if err != nil {
					t.Fatalf("%s: bounded Reopen with %v torn: %v", label, crash.Page, err)
				}
				if stats.CheckpointLSN == 0 || stats.RecordsSkipped == 0 {
					t.Fatalf("%s: recovery was not bounded by the checkpoint: %+v", label, stats)
				}
				oldest := completed - 1
				if group > 1 {
					oldest = -1
				}
				prefix := completed + 1
				for j := completed; j >= oldest && prefix > completed; j-- {
					ok, err := stateMatches(rdb, models(j))
					if err != nil {
						t.Fatalf("%s: verifying bounded recovery: %v", label, err)
					}
					if ok {
						prefix = j
					}
				}
				if prefix > completed {
					t.Fatalf("%s: bounded recovery with %v torn matches no admissible prefix (stats %+v)", label, crash.Page, stats)
				}
				fdb, _, err := reopenWith(cfg, db.Device(), true, 0)
				if err != nil {
					t.Fatalf("%s: recovery from LSN 0: %v", label, err)
				}
				if ok, err := stateMatches(fdb, models(prefix)); err != nil || !ok {
					t.Fatalf("%s: bounded recovery and recovery from LSN 0 disagree (%v)", label, err)
				}
			}
			if !tornHeap {
				t.Errorf("workers=%d/group=%d: no crash tore %v, the page the sweep is about", workers, group, heap)
			}
		}
	}
}

// TestCleanReopen recovers a database that shut down without crashing: the
// full workload must come back with zero torn bytes and all transactions
// committed.
func TestCleanReopen(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := crashSteps()
	for _, st := range steps {
		if err := st.run(db); err != nil {
			t.Fatalf("step %s: %v", st.name, err)
		}
	}
	rdb, stats, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornTailBytes != 0 || stats.TornPages != 0 {
		t.Errorf("clean shutdown reports torn state: %+v", stats)
	}
	if stats.TxnsDiscarded != 0 {
		t.Errorf("clean shutdown discarded %d transactions", stats.TxnsDiscarded)
	}
	if stats.RecordsScanned == 0 || stats.RecordsReplayed == 0 {
		t.Errorf("recovery scanned nothing: %+v", stats)
	}
	ok, err := stateMatches(rdb, steps[len(steps)-1].model)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cleanly reopened database diverges from the workload model")
	}
	// The recovered database must accept new transactions.
	r, _ := rdb.Collection("r")
	if _, err := r.Insert(crashRect(100), "post-recovery"); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestPoisonedDatabaseRefusesWork checks the failure path short of a crash:
// when a WAL transaction dies with an error (not a panic), the database
// refuses further queries and mutations until reopened.
func TestPoisonedDatabaseRefusesWork(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(crashRect(0), "ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(nil, "nil shape"); err == nil {
		t.Fatal("nil-shape insert succeeded")
	}
	// A nil shape is rejected before the transaction opens, so the database
	// stays usable...
	if _, _, err := db.Select(c, crashRect(0), Overlaps(), ScanStrategy); err != nil {
		t.Fatalf("select after rejected insert: %v", err)
	}
	// ...but an error inside a transaction poisons it. Force one by losing
	// the heap page under the insert (after write-back, so the loss hits the
	// transaction's read, not the flush).
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	db.FaultDisk().LosePage(storage.PageID{File: c.rel.FileID(), Page: 0})
	if _, err := c.Insert(crashRect(1), "doomed"); err == nil {
		t.Fatal("insert over a lost heap page succeeded")
	}
	if _, _, err := db.Select(c, crashRect(0), Overlaps(), ScanStrategy); err == nil {
		t.Fatal("poisoned database answered a query")
	}
	if _, err := c.Insert(crashRect(2), "refused"); err == nil {
		t.Fatal("poisoned database accepted an insert")
	}
}
