package fault

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"spatialjoin/internal/storage"
)

// newDisk returns a healthy disk with one file of n written pages, plus the
// page ids.
func newDisk(t *testing.T, n int) (*storage.Disk, []storage.PageID) {
	t.Helper()
	d := storage.NewDisk(256)
	f := d.CreateFile()
	ids := make([]storage.PageID, n)
	for i := range ids {
		id, err := d.AllocPage(f)
		if err != nil {
			t.Fatalf("AllocPage: %v", err)
		}
		buf := make([]byte, d.PageSize())
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := d.WritePage(id, buf); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
		ids[i] = id
	}
	return d, ids
}

func TestScheduleIsDeterministic(t *testing.T) {
	trace := func() []bool {
		inner, ids := newDisk(t, 8)
		fd := Wrap(inner, Options{Seed: 42, TransientReadRate: 0.5})
		var out []bool
		for round := 0; round < 10; round++ {
			for _, id := range ids {
				_, err := storage.ReadPage(fd, id)
				out = append(out, err != nil)
			}
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at attempt %d: %v vs %v", i, a[i], b[i])
		}
	}
	var faults int
	for _, f := range a {
		if f {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("rate 0.5 schedule gave %d/%d faults; want a mix", faults, len(a))
	}
}

func TestSeedsGiveDifferentSchedules(t *testing.T) {
	trace := func(seed int64) []bool {
		inner, ids := newDisk(t, 8)
		fd := Wrap(inner, Options{Seed: seed, TransientReadRate: 0.5})
		var out []bool
		for round := 0; round < 10; round++ {
			for _, id := range ids {
				_, err := storage.ReadPage(fd, id)
				out = append(out, err != nil)
			}
		}
		return out
	}
	a, b := trace(1), trace(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestErrorClassification(t *testing.T) {
	tr := &Error{Op: "read", Page: storage.PageID{File: 0, Page: 3}, Kind: Transient, Attempt: 7}
	pe := &Error{Op: "write", Page: storage.PageID{File: 1, Page: 0}, Kind: Permanent, Attempt: 1}

	if !errors.Is(tr, ErrTransient) || errors.Is(tr, ErrPermanent) {
		t.Errorf("transient error misclassified by errors.Is: %v", tr)
	}
	if !errors.Is(pe, ErrPermanent) || errors.Is(pe, ErrTransient) {
		t.Errorf("permanent error misclassified by errors.Is: %v", pe)
	}
	if !storage.IsTransient(tr) || storage.IsTransient(pe) {
		t.Error("storage.IsTransient disagrees with fault classification")
	}
	if !IsPermanent(pe) || IsPermanent(tr) {
		t.Error("IsPermanent disagrees with fault classification")
	}

	// Classification must survive fmt.Errorf("%w") wrapping.
	wrapped := errors.Join(errors.New("context"), tr)
	if !errors.Is(wrapped, ErrTransient) || !storage.IsTransient(wrapped) {
		t.Error("classification lost through wrapping")
	}
	var fe *Error
	if !errors.As(wrapped, &fe) || fe.Attempt != 7 {
		t.Error("errors.As failed to recover *Error through wrapping")
	}
}

func TestLoseAndHealPage(t *testing.T) {
	inner, ids := newDisk(t, 2)
	fd := Wrap(inner, Options{Seed: 1})

	fd.LosePage(ids[0])
	if _, err := storage.ReadPage(fd, ids[0]); !errors.Is(err, ErrPermanent) {
		t.Fatalf("read of lost page: got %v, want ErrPermanent", err)
	}
	if err := fd.WritePage(ids[0], make([]byte, inner.PageSize())); !errors.Is(err, ErrPermanent) {
		t.Fatalf("write of lost page: got %v, want ErrPermanent", err)
	}
	if _, err := storage.ReadPage(fd, ids[1]); err != nil {
		t.Fatalf("read of healthy page alongside lost one: %v", err)
	}

	fd.HealPage(ids[0])
	if _, err := storage.ReadPage(fd, ids[0]); err != nil {
		t.Fatalf("read after HealPage: %v", err)
	}
	if fd.Stats().ReadFaults == 0 || fd.Stats().WriteFaults == 0 {
		t.Errorf("lost-page faults not counted: %+v", fd.Stats())
	}
}

func TestTearPageCorruptsEveryRead(t *testing.T) {
	inner, ids := newDisk(t, 1)
	fd := Wrap(inner, Options{Seed: 1})
	clean, err := storage.ReadPage(fd, ids[0])
	if err != nil {
		t.Fatalf("clean read: %v", err)
	}

	fd.TearPage(ids[0])
	for i := 0; i < 3; i++ {
		buf, err := storage.ReadPage(fd, ids[0])
		if err != nil {
			t.Fatalf("torn read %d: %v", i, err)
		}
		if bytes.Equal(buf, clean) {
			t.Fatalf("torn read %d returned clean bytes", i)
		}
		want, ok := fd.Checksum(ids[0])
		if !ok || storage.PageChecksum(buf) == want {
			t.Fatalf("torn read %d passes checksum verification", i)
		}
	}

	fd.MendPage(ids[0])
	buf, err := storage.ReadPage(fd, ids[0])
	if err != nil || !bytes.Equal(buf, clean) {
		t.Fatalf("read after MendPage: err=%v, clean=%v", err, bytes.Equal(buf, clean))
	}
}

func TestCorruptRateFlipsBitsSilently(t *testing.T) {
	inner, ids := newDisk(t, 1)
	fd := Wrap(inner, Options{Seed: 9, CorruptRate: 1})
	buf, err := storage.ReadPage(fd, ids[0])
	if err != nil {
		t.Fatalf("corrupted read should report success: %v", err)
	}
	want, ok := fd.Checksum(ids[0])
	if !ok {
		t.Fatal("no recorded checksum")
	}
	if storage.PageChecksum(buf) == want {
		t.Fatal("CorruptRate=1 read passed checksum verification")
	}
	if fd.Stats().ReadFaults == 0 {
		t.Error("corruption not counted in ReadFaults")
	}
}

func TestLatencyInjection(t *testing.T) {
	inner, ids := newDisk(t, 1)
	var slept time.Duration
	opts := Options{Seed: 1, ReadLatency: 3 * time.Millisecond, sleep: func(d time.Duration) { slept += d }}
	fd := Wrap(inner, opts)
	for i := 0; i < 4; i++ {
		if _, err := storage.ReadPage(fd, ids[0]); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	if want := 12 * time.Millisecond; slept != want {
		t.Fatalf("injected latency = %v, want %v", slept, want)
	}
}

// TestPoolRecoversFromTransients drives a buffer pool over a flaky device:
// with a retry budget that comfortably exceeds the fault streaks in this
// seed's schedule, every fetch succeeds, and both the retries and the
// injected faults are visible in the statistics.
func TestPoolRecoversFromTransients(t *testing.T) {
	inner, ids := newDisk(t, 8)
	fd := Wrap(inner, Options{Seed: 7, TransientReadRate: 0.5})
	pool, err := storage.NewBufferPool(fd, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetRetryPolicy(storage.RetryPolicy{MaxAttempts: 20})

	for round := 0; round < 4; round++ {
		for _, id := range ids {
			if _, err := pool.Fetch(id); err != nil {
				t.Fatalf("fetch %v round %d: %v", id, round, err)
			}
		}
		if err := pool.DropAll(); err != nil {
			t.Fatalf("DropAll: %v", err)
		}
	}

	ps, ds := pool.Stats(), fd.Stats()
	if ps.ReadRetries == 0 {
		t.Errorf("no read retries recorded: %+v", ps)
	}
	if ds.ReadFaults == 0 {
		t.Errorf("no read faults recorded: %+v", ds)
	}
	if ps.Misses+ps.ReadRetries != ds.Reads+ds.ReadFaults {
		t.Errorf("attempt accounting: pool %d+%d physical attempts, device saw %d+%d",
			ps.Misses, ps.ReadRetries, ds.Reads, ds.ReadFaults)
	}
}

// TestPoolSurfacesPermanentLoss checks the pool gives up immediately on a
// lost page and the typed classification survives its error wrapping.
func TestPoolSurfacesPermanentLoss(t *testing.T) {
	inner, ids := newDisk(t, 2)
	fd := Wrap(inner, Options{Seed: 7})
	pool, err := storage.NewBufferPool(fd, 2)
	if err != nil {
		t.Fatal(err)
	}

	fd.LosePage(ids[1])
	_, err = pool.Fetch(ids[1])
	if err == nil {
		t.Fatal("fetch of lost page succeeded")
	}
	if !errors.Is(err, ErrPermanent) || !IsPermanent(err) {
		t.Fatalf("lost-page fetch error lost its classification: %v", err)
	}
	if storage.IsTransient(err) {
		t.Fatalf("lost-page fetch error claims to be transient: %v", err)
	}
	if retries := pool.Stats().ReadRetries; retries != 0 {
		t.Errorf("pool retried a permanent fault %d times", retries)
	}
}

// TestPoolDetectsTornPage checks that at-rest corruption is caught by the
// pool's end-to-end verification and classified permanent after the retry
// budget is exhausted — never returned as data.
func TestPoolDetectsTornPage(t *testing.T) {
	inner, ids := newDisk(t, 1)
	fd := Wrap(inner, Options{Seed: 7})
	pool, err := storage.NewBufferPool(fd, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetRetryPolicy(storage.RetryPolicy{MaxAttempts: 3})

	fd.TearPage(ids[0])
	_, err = pool.Fetch(ids[0])
	if err == nil {
		t.Fatal("fetch of torn page succeeded")
	}
	if !storage.IsChecksum(err) {
		t.Fatalf("torn-page fetch error is not a checksum error: %v", err)
	}
	if !IsPermanent(err) {
		t.Fatalf("torn-page fetch error not classified permanent: %v", err)
	}
	if retries := pool.Stats().ReadRetries; retries != 2 {
		t.Errorf("torn page retried %d times, want 2 (budget 3)", retries)
	}
}
