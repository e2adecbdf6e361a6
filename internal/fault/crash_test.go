package fault

import (
	"testing"

	"spatialjoin/internal/storage"
)

// TestCrashAfterWrites checks the nth write panics with *Crash, tears the
// doomed page, and refuses all I/O until Reboot.
func TestCrashAfterWrites(t *testing.T) {
	d := Wrap(storage.NewDisk(64), Options{Seed: 1})
	f := d.CreateFile()
	var ids []storage.PageID
	for i := 0; i < 3; i++ {
		id, err := d.AllocPage(f)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	buf := make([]byte, 64)
	d.SetCrashAfterWrites(3)
	if err := d.WritePage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(ids[1], buf); err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			c, ok := AsCrash(recover())
			if !ok {
				t.Fatal("third write did not panic with *Crash")
			}
			if c.Writes != 3 || c.Page != ids[2] {
				t.Errorf("crash = %+v", c)
			}
		}()
		d.WritePage(ids[2], buf)
	}()

	if !d.Crashed() {
		t.Fatal("device not marked crashed")
	}
	if _, err := storage.ReadPage(d, ids[0]); err == nil {
		t.Error("read succeeded on a crashed device")
	}
	if err := d.WritePage(ids[0], buf); err == nil {
		t.Error("write succeeded on a crashed device")
	}

	d.Reboot()
	if d.Crashed() {
		t.Fatal("Reboot did not clear the crashed flag")
	}
	// The doomed page was torn mid-write: its bytes no longer match the
	// recorded checksum...
	if checksumOK(t, d, ids[2]) {
		t.Error("torn page passes checksum after reboot")
	}
	// ...until a successful rewrite heals it.
	if err := d.WritePage(ids[2], buf); err != nil {
		t.Fatal(err)
	}
	if !checksumOK(t, d, ids[2]) {
		t.Error("rewritten page still torn")
	}
	// Pages untouched by the crash survive.
	if !checksumOK(t, d, ids[0]) {
		t.Error("unrelated page corrupted across crash")
	}
}

// checksumOK reads a page raw and verifies it against the device's recorded
// checksum, the way the buffer pool and the WAL scanner detect torn pages.
func checksumOK(t *testing.T, d *Disk, id storage.PageID) bool {
	t.Helper()
	buf, err := storage.ReadPage(d, id)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := d.Checksum(id)
	if !ok {
		t.Fatalf("no checksum recorded for %v", id)
	}
	return storage.PageChecksum(buf) == want
}

// TestCrashPointArming checks named crash points fire on the requested
// occurrence and disarm themselves.
func TestCrashPointArming(t *testing.T) {
	defer DisarmCrashPoints()
	ArmCrashPoint("txn.commit", 2)
	CrashPoint("txn.begin")  // different name: no panic
	CrashPoint("txn.commit") // first hit: no panic
	fired := false
	func() {
		defer func() {
			c, ok := AsCrash(recover())
			fired = ok
			if ok && c.Point != "txn.commit" {
				t.Errorf("crash point = %q", c.Point)
			}
		}()
		CrashPoint("txn.commit")
	}()
	if !fired {
		t.Fatal("second hit did not fire")
	}
	CrashPoint("txn.commit") // disarmed after firing: no panic
}

// TestCrashPointRecording checks the dry-run mode used by the sweep harness
// to enumerate injectable points.
func TestCrashPointRecording(t *testing.T) {
	defer DisarmCrashPoints()
	StartCrashPointRecording()
	CrashPoint("a")
	CrashPoint("a")
	CrashPoint("b")
	got := RecordedCrashPoints()
	if got["a"] != 2 || got["b"] != 1 {
		t.Errorf("recorded = %v", got)
	}
	// Recording must never fire.
	CrashPoint("a")
}
