package spatialjoin

// Root-level checkpoint tests: bounded recovery skips work the checkpoint
// proved durable, truncation reclaims the log without changing observable
// state, every reopen rebuilds the R-trees the live database queried, and a
// fuzzy checkpoint runs safely alongside a writer.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"spatialjoin/internal/storage"
)

// runSteps drives a workload prefix against db, failing the test on any
// step error, and returns the final model.
func runSteps(t *testing.T, db *Database, steps []crashStep) crashModel {
	t.Helper()
	for _, st := range steps {
		if err := st.run(db); err != nil {
			t.Fatalf("step %s: %v", st.name, err)
		}
	}
	return steps[len(steps)-1].model
}

// mustMatch asserts db's observable state equals the model across all four
// strategies.
func mustMatch(t *testing.T, db *Database, m crashModel, label string) {
	t.Helper()
	ok, err := stateMatches(db, m)
	if err != nil {
		t.Fatalf("%s: verifying state: %v", label, err)
	}
	if !ok {
		t.Fatalf("%s: state does not match the committed workload", label)
	}
}

// TestCheckpointBoundsReopen checkpoints mid-workload (non-truncating, so
// every record stays scannable) and checks the subsequent recovery skips
// exactly the work the checkpoint made durable while still reconstructing
// the full committed state.
func TestCheckpointBoundsReopen(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := crashSteps()
	mid := len(steps) / 2
	runSteps(t, db, steps[:mid])
	cs, err := db.checkpoint(false)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cs.EndLSN <= cs.BeginLSN {
		t.Fatalf("checkpoint LSNs out of order: %+v", cs)
	}
	if cs.PagesFlushed == 0 {
		t.Error("mid-workload checkpoint flushed no dirty frames")
	}
	final := runSteps(t, db, steps[mid:])

	rdb, stats, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if stats.CheckpointLSN != cs.BeginLSN {
		t.Errorf("recovery bounded by checkpoint %d, want %d", stats.CheckpointLSN, cs.BeginLSN)
	}
	if stats.RecordsSkipped == 0 {
		t.Error("recovery skipped nothing despite a covering checkpoint")
	}
	if stats.RecordsReplayed == 0 {
		t.Error("recovery replayed nothing despite post-checkpoint commits")
	}
	mustMatch(t, rdb, final, "bounded recovery")
}

// TestCheckpointTruncatesLog checkpoints after the full workload and checks
// truncation reclaims log pages, recovery starts above LSN 0, replays
// nothing, and re-registers both collections from the manifest.
func TestCheckpointTruncatesLog(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := runSteps(t, db, crashSteps())
	cs, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cs.PagesTruncated == 0 {
		t.Error("truncating checkpoint reclaimed no log pages")
	}
	if tot := db.CheckpointTotals(); tot.Checkpoints != 1 || tot.LastFloor != cs.RedoFloor {
		t.Errorf("CheckpointTotals = %+v, want 1 checkpoint at floor %d", tot, cs.RedoFloor)
	}

	rdb, stats, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if stats.BaseLSN == 0 {
		t.Error("recovery scanned from LSN 0 after truncation")
	}
	if stats.RecordsReplayed != 0 {
		t.Errorf("recovery replayed %d records after a quiescent checkpoint", stats.RecordsReplayed)
	}
	if rdb.RecoveryInfo() != stats {
		t.Error("RecoveryInfo does not echo the Reopen stats")
	}
	mustMatch(t, rdb, final, "post-truncation recovery")
}

// treeAnswers is what the tree strategy says about a database: a join, a
// window selection, the Θ and θ evaluations each counted, and both
// collections' R-tree heights. A rebuilt tree of a different shape answers
// the same but counts differently.
type treeAnswers struct {
	join   []Match
	sel    []int
	counts treeCounts
}

type treeCounts struct {
	JoinFilter, JoinExact int64
	SelFilter, SelExact   int64
	HeightR, HeightS      int
}

func askTree(t *testing.T, db *Database, label string) treeAnswers {
	t.Helper()
	r, okR := db.Collection("r")
	s, okS := db.Collection("s")
	if !okR || !okS {
		t.Fatalf("%s: collections missing", label)
	}
	var a treeAnswers
	var js, ss Stats
	var err error
	if a.join, js, err = db.Join(r, s, Overlaps(), TreeStrategy); err != nil {
		t.Fatalf("%s: tree join: %v", label, err)
	}
	if a.sel, ss, err = db.Select(r, NewRect(200, 200, 600, 500), Overlaps(), TreeStrategy); err != nil {
		t.Fatalf("%s: tree selection: %v", label, err)
	}
	a.counts = treeCounts{
		JoinFilter: js.FilterEvals, JoinExact: js.ExactEvals,
		SelFilter: ss.FilterEvals, SelExact: ss.ExactEvals,
		HeightR: r.IndexHeight(), HeightS: s.IndexHeight(),
	}
	return a
}

// TestReopenRebuildsTheSameTree crashes a database holding two loaded
// collections three ways — with no checkpoint, after a truncating
// checkpoint, and after a checkpoint plus one later insert — and requires
// the recovered database to answer a tree join and a tree selection exactly
// as the live one did at that prefix, with bit-identical Θ and θ counts and
// tree heights: Reopen's heap-order rebuild must re-create the tree the
// inserts built, not merely a tree with the same contents.
func TestReopenRebuildsTheSameTree(t *testing.T) {
	cases := []struct {
		name  string
		after func(t *testing.T, db *Database)
	}{
		{"no checkpoint", func(*testing.T, *Database) {}},
		{"truncating checkpoint", func(t *testing.T, db *Database) {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
		{"checkpoint then insert", func(t *testing.T, db *Database) {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			r, _ := db.Collection("r")
			if _, err := r.Insert(NewRect(300, 300, 340, 330), "late"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		cfg := crashConfig(1, 1)
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"r", "s"} {
			c, err := db.CreateCollection(name)
			if err != nil {
				t.Fatal(err)
			}
			loadRandomRects(t, c, int64(i+1), 300)
		}
		tc.after(t, db)
		live := askTree(t, db, tc.name+": live")
		if live.counts.HeightR < 3 || len(live.join) == 0 || len(live.sel) == 0 {
			t.Fatalf("%s: the workload is too small to tell trees apart: %+v", tc.name, live.counts)
		}

		rdb, _, err := Reopen(cfg, db.Device())
		if err != nil {
			t.Fatalf("%s: Reopen: %v", tc.name, err)
		}
		got := askTree(t, rdb, tc.name+": recovered")
		if !reflect.DeepEqual(got.join, live.join) || !reflect.DeepEqual(got.sel, live.sel) {
			// A selection reports IDs in tree order, so a reshaped tree
			// shows here even when the answer set is the same.
			t.Errorf("%s: recovered database answers differently (set or order): join %d / select %d results, live %d / %d",
				tc.name, len(got.join), len(got.sel), len(live.join), len(live.sel))
		}
		if got.counts != live.counts {
			t.Errorf("%s: recovered tree counts differently:\n got  %+v\n live %+v", tc.name, got.counts, live.counts)
		}
	}
}

// TestSelfJoinIndexPersistsEachPairOnce maintains a WAL-backed self-join
// index through inserts and requires its pair file to hold exactly Pairs()
// records, before and after Reopen: an insert into the one collection must
// write its (id, id) pair once, not once per side.
func TestSelfJoinIndexPersistsEachPairOnce(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("c")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(crashRect(i), fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	ji, _, err := db.BuildJoinIndex(c, c, Overlaps())
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		if _, err := c.Insert(crashRect(i), fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ji.Pairs() < 10 {
		t.Fatalf("self-join index holds %d pairs, want at least the 10 (id, id) pairs", ji.Pairs())
	}
	if n := pairRecords(t, ji); n != ji.Pairs() {
		t.Fatalf("live: pair file holds %d records for %d pairs", n, ji.Pairs())
	}

	rdb, _, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	rc, _ := rdb.Collection("c")
	rji, ok := rdb.joinIndexFor(rc, rc, Overlaps())
	if !ok {
		t.Fatal("self-join index not recovered")
	}
	if rji.Pairs() != ji.Pairs() {
		t.Fatalf("recovered index holds %d pairs, live %d", rji.Pairs(), ji.Pairs())
	}
	if n := pairRecords(t, rji); n != rji.Pairs() {
		t.Fatalf("recovered: pair file holds %d records for %d pairs", n, rji.Pairs())
	}
}

// pairRecords counts the records in ji's pair file.
func pairRecords(t *testing.T, ji *JoinIndex) int {
	t.Helper()
	n := 0
	if err := ji.file.Scan(func(storage.RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCheckpointConcurrentWithWriters runs the workload from one goroutine
// while another loops truncating checkpoints, then verifies both the live
// database and a recovered one. Run under -race this also proves the
// protocol's locking story.
func TestCheckpointConcurrentWithWriters(t *testing.T) {
	cfg := crashConfig(2, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := crashSteps()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Errorf("concurrent checkpoint: %v", err)
				return
			}
		}
	}()
	final := runSteps(t, db, steps)
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	mustMatch(t, db, final, "live database")

	rdb, _, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	mustMatch(t, rdb, final, "recovery after concurrent checkpoints")
}
