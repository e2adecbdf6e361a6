package cli

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
)

func TestServeMetrics(t *testing.T) {
	var sb strings.Builder
	reg := obs.NewRegistry()
	reg.Counter("sjoin_test_total", "Test counter.").Add(3)
	stop, err := ServeMetrics(&sb, "sjoin", "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	addr := strings.TrimSpace(strings.TrimPrefix(sb.String(), "metrics: serving "))
	resp, err := http.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "sjoin_test_total 3") {
		t.Fatalf("metrics endpoint returned %d:\n%s", resp.StatusCode, body)
	}
}

// testDB opens a small WAL-backed database with a few rectangles in
// collections r and s.
func testDB(t *testing.T) (*spatialjoin.Database, spatialjoin.Config) {
	t.Helper()
	cfg := spatialjoin.DefaultConfig()
	cfg.PageSize = 512
	cfg.BufferPages = 64
	cfg.Workers = 1
	cfg.WAL = true
	cfg.WALGroupCommit = 1
	db, err := spatialjoin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"r", "s"} {
		col, err := db.CreateCollection(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			x := float64(i * 40)
			if _, err := col.Insert(spatialjoin.NewRect(x, x, x+30, x+30), ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, cfg
}

// TestExportSnapshotFileAtomic is the regression test for the snapshot
// export paths (sjoind's SIGUSR1, sjoin -export-snapshot): the published path must appear atomically (temp file
// fsynced then renamed, never a torn stream), the temp file must not
// survive, and the published stream must seed a byte-identical replica.
func TestExportSnapshotFileAtomic(t *testing.T) {
	db, cfg := testDB(t)
	defer db.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")

	if _, err := ExportSnapshotFile(db, path); err != nil {
		t.Fatalf("ExportSnapshotFile: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file survived the rename: %v", err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replica, info, err := spatialjoin.SeedFromSnapshot(cfg, f)
	if err != nil {
		t.Fatalf("published snapshot does not seed: %v", err)
	}
	defer replica.Close()
	if info.Pages == 0 {
		t.Errorf("implausible snapshot info: %+v", info)
	}
	srcR, _ := db.Collection("r")
	srcS, _ := db.Collection("s")
	repR, _ := replica.Collection("r")
	repS, _ := replica.Collection("s")
	want, err := Fingerprint(srcR, srcS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fingerprint(repR, repS)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("seeded fingerprint %016x, want %016x", got, want)
	}
}

// TestExportSnapshotFileFailurePublishesNothing proves a failed export
// can never leave anything — torn or otherwise — at the published path.
func TestExportSnapshotFileFailurePublishesNothing(t *testing.T) {
	db, _ := testDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")

	// Closing the database makes the checkpoint inside ExportSnapshot fail
	// after the temp file is already created.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ExportSnapshotFile(db, path); err == nil {
		t.Fatal("export off a closed database succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed export published %s: %v", path, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed export left its temp file: %v", err)
	}
}

// crashConfig is a logged database on a fault device that syncs every
// commit, so each insert is durable once it returns.
func crashConfig() spatialjoin.Config {
	cfg := spatialjoin.DefaultConfig()
	cfg.Workers = 1
	cfg.WAL = true
	cfg.WALGroupCommit = 1
	cfg.Fault = &fault.Options{Seed: 1}
	return cfg
}

// TestCrashCycle crashes a load at its 40th physical write: CatchCrash must
// report the crash rather than an error, and Recover must print its ledger
// and reopen a database holding a committed prefix of the load.
func TestCrashCycle(t *testing.T) {
	cfg := crashConfig()
	db, err := spatialjoin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rects := make([]spatialjoin.Rect, 200)
	for i := range rects {
		x := float64(i % 20 * 50)
		rects[i] = spatialjoin.NewRect(x, x, x+30, x+30)
	}
	var sb strings.Builder
	crashed, err := CatchCrash(&sb, db, 40, func() error {
		_, err := Load(db, "r", rects)
		return err
	})
	if err != nil || !crashed {
		t.Fatalf("CatchCrash = (%v, %v), want the crash reported", crashed, err)
	}
	rdb, err := Recover(&sb, cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	out := sb.String()
	for _, want := range []string{"crash: fault: injected crash at write 40",
		"recovery: ", "records scanned", "txns committed", "torn tail bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("crash cycle output missing %q:\n%s", want, out)
		}
	}
	col, ok := rdb.Collection("r")
	if !ok || col.Len() == 0 || col.Len() >= len(rects) {
		t.Fatalf("recovered collection present %v with %d of %d inserts, want a proper committed prefix",
			ok, col.Len(), len(rects))
	}
	for id := 0; id < col.Len(); id++ {
		shape, _, err := col.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !geom.SameRect(shape.Bounds(), rects[id]) {
			t.Fatalf("recovered tuple %d is %v, want %v", id, shape.Bounds(), rects[id])
		}
	}
}

// TestCatchCrashPassesErrorsAndOtherPanics: a load that fails returns its
// error with no crash, and a panic that is not an injected crash leaves
// CatchCrash unrecovered.
func TestCatchCrashPassesErrorsAndOtherPanics(t *testing.T) {
	db, err := spatialjoin.Open(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	boom := errors.New("boom")
	crashed, err := CatchCrash(io.Discard, db, 0, func() error { return boom })
	if crashed || err != boom {
		t.Fatalf("CatchCrash = (%v, %v), want (false, %v)", crashed, err, boom)
	}
	defer func() {
		if v := recover(); v != "not a crash" {
			t.Fatalf("recovered %v, want the load's own panic", v)
		}
	}()
	CatchCrash(io.Discard, db, 0, func() error { panic("not a crash") })
	t.Fatal("CatchCrash swallowed a panic that is not a crash")
}
