package spatialjoin

import (
	"fmt"
	"testing"
)

// redoConfig is the paper's page geometry with the log on and no fault
// device: the byte counts below are the ones EXPERIMENTS.md reports.
func redoConfig() Config {
	cfg := DefaultConfig()
	cfg.WAL = true
	cfg.Workers = 1
	return cfg
}

// TestInsertLogsBytesNotPages is the tier-1 guard on the write path's log
// volume: an insert logs what it changed — one slot append between a begin
// and a commit record — not the heap page it touched, except the first time
// it touches a page that is clean (invariant I1: a checkpoint flushed it, so
// the log holds no base for appends and the insert logs the page's image).
func TestInsertLogsBytesNotPages(t *testing.T) {
	cfg := redoConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("c")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(i int) (bytes, images, appends int64) {
		t.Helper()
		before := db.WALStats()
		if _, err := c.Insert(crashRect(i), fmt.Sprintf("payload-%04d", i)); err != nil {
			t.Fatal(err)
		}
		after := db.WALStats()
		return after.BytesLogged - before.BytesLogged, after.Images - before.Images, after.Appends - before.Appends
	}
	// The very first insert starts its page at slot 0: a fresh page's
	// history begins from nothing, so not even it logs an image.
	if bytes, images, appends := insert(0); images != 0 || appends != 1 || bytes > 150 {
		t.Errorf("first insert logged %d B, %d images, %d appends; want one slot-0 append in <= 150 B", bytes, images, appends)
	}
	for i := 1; i < 8; i++ {
		if bytes, images, appends := insert(i); images != 0 || appends != 1 || bytes > 150 {
			t.Errorf("steady-state insert %d logged %d B, %d images, %d appends; want 1 append in <= 150 B", i, bytes, images, appends)
		}
	}

	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint wrote the page back: the next insert finds it clean
	// and must log its image.
	bytes, images, appends := insert(8)
	if images != 1 || appends != 0 {
		t.Errorf("first insert after a checkpoint logged %d images and %d appends, want 1 image", images, appends)
	}
	if min := int64(cfg.PageSize); bytes < min {
		t.Errorf("first insert after a checkpoint logged %d B, less than one %d-byte page", bytes, cfg.PageSize)
	}
	// With the image in the log the page is anchored again.
	if bytes, images, appends := insert(9); images != 0 || appends != 1 || bytes > 150 {
		t.Errorf("second insert after a checkpoint logged %d B, %d images, %d appends; want 1 append in <= 150 B", bytes, images, appends)
	}

	rdb, _, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatal(err)
	}
	rc, ok := rdb.Collection("c")
	if !ok || rc.Len() != 10 {
		t.Fatalf("recovered collection holds %d objects, want 10", rc.Len())
	}
	for i := 0; i < 10; i++ {
		shape, payload, err := rc.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if shape != Spatial(crashRect(i)) || payload != fmt.Sprintf("payload-%04d", i) {
			t.Errorf("recovered object %d = (%v, %q)", i, shape, payload)
		}
	}
}

// TestBulkAppendsLogTheImage checks the size rule: a transaction whose
// appends to one page would log more bytes than the page does logs the
// page's image instead. BuildJoinIndex fills its pair file with 16-byte
// records, each of which would cost 51 B as an append.
func TestBulkAppendsLogTheImage(t *testing.T) {
	cfg := redoConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.CreateCollection("r")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateCollection("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := r.Insert(NewRect(0, 0, 10, 10), "r"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(NewRect(5, 5, 15, 15), "s"); err != nil {
			t.Fatal(err)
		}
	}
	before := db.WALStats()
	if _, _, err := db.BuildJoinIndex(r, s, Overlaps()); err != nil {
		t.Fatal(err)
	}
	after := db.WALStats()
	images, appends := after.Images-before.Images, after.Appends-before.Appends
	if images == 0 {
		t.Fatal("a 1600-pair index build logged no page image")
	}
	// Only the last, partly filled page of the pair file may be cheaper as
	// appends; every full page must have gone out as one image.
	if logged, cap := after.BytesLogged-before.BytesLogged, (images+1)*int64(cfg.PageSize+64); logged > cap {
		t.Errorf("index build logged %d B in %d images and %d appends, want <= %d", logged, images, appends, cap)
	}
	rdb, _, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := rdb.Collection("r")
	rs, _ := rdb.Collection("s")
	ms, _, err := rdb.Join(rr, rs, Overlaps(), IndexStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1600 {
		t.Errorf("recovered join index answers %d matches, want 1600", len(ms))
	}
}
