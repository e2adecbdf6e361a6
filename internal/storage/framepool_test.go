package storage

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// filledPool returns a pool of the given capacity over a healthy disk
// holding the given number of initialized pages in one file.
func filledPool(t *testing.T, capacity, pages int) (*BufferPool, []PageID) {
	t.Helper()
	d, bp := newPoolT(t, 256, capacity)
	f := d.CreateFile()
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = allocInit(t, d, f)
	}
	return bp, ids
}

func TestFetchHitAllocatesNothing(t *testing.T) {
	bp, ids := filledPool(t, 8, 4)
	for _, id := range ids {
		if _, err := bp.Fetch(id); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		// Rotating over the resident pages moves a different frame to
		// the front each time, so the relink path is measured too.
		if _, err := bp.Fetch(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Fetch on a hit allocates %.1f times, want 0", allocs)
	}
	if s := bp.Stats(); s.Misses != int64(len(ids)) {
		t.Fatalf("misses = %d, want only the %d warming ones", s.Misses, len(ids))
	}
}

func TestFetchSteadyStateMissAllocatesNothing(t *testing.T) {
	bp, ids := filledPool(t, 4, 16)
	// One cycle fills the pool and leaves the spare buffer in place: from
	// here on every fetch is a miss that evicts a clean victim.
	for _, id := range ids {
		if _, err := bp.Fetch(id); err != nil {
			t.Fatal(err)
		}
	}
	before := bp.Stats()
	i := 0
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := bp.Fetch(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Fetch on a steady-state miss allocates %.1f times, want 0", allocs)
	}
	after := bp.Stats()
	// AllocsPerRun calls the function once more to warm up.
	if got := after.Misses - before.Misses; got != runs+1 {
		t.Fatalf("%d of %d fetches missed; the cycle must defeat a %d-frame LRU", got, runs+1, bp.Capacity())
	}
	if got := after.Evictions - before.Evictions; got != runs+1 {
		t.Fatalf("evictions = %d, want one per miss", got)
	}
}

func TestFailedReadEvictsNothing(t *testing.T) {
	d, bp := newFlakyPool(t, 2, 3)
	f := d.CreateFile()
	a, b, c := allocInit(t, d.Disk, f), allocInit(t, d.Disk, f), allocInit(t, d.Disk, f)
	for _, id := range []PageID{a, b} {
		if err := bp.Write(id, func(p *Page) (int, error) {
			p.Bytes()[8] = byte(id.Page) + 1
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := bp.Stats()
	writes := d.Stats().Writes

	d.failReads[c] = 99 // more transient faults than the retry budget
	if _, err := bp.Fetch(c); err == nil {
		t.Fatal("read past the retry budget must fail")
	}
	after := bp.Stats()
	if after.Evictions != before.Evictions {
		t.Fatalf("a failed read evicted: evictions %d → %d", before.Evictions, after.Evictions)
	}
	if got := d.Stats().Writes; got != writes {
		t.Fatalf("a failed read wrote back %d frames", got-writes)
	}
	if after.Misses != before.Misses+1 || after.ReadRetries != before.ReadRetries+2 {
		t.Fatalf("miss/retry accounting: %+v → %+v", before, after)
	}
	for _, id := range []PageID{a, b} {
		if !bp.Resident(id) || !bp.Dirty(id) {
			t.Fatalf("page %v lost its frame or its dirt to a failed read", id)
		}
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bytes()[8] != byte(id.Page)+1 {
			t.Fatalf("page %v: the failed read scribbled over a resident frame", id)
		}
	}
	if bp.Resident(c) {
		t.Fatal("the unread page became resident")
	}

	// The device heals: the same fetch now evicts the least recently used
	// frame (a, fetched before b just above) and loads c.
	d.failReads[c] = 0
	if _, err := bp.Fetch(c); err != nil {
		t.Fatal(err)
	}
	if bp.Resident(a) || !bp.Resident(b) || !bp.Resident(c) {
		t.Fatal("after healing, the LRU frame must be the victim")
	}
}

// TestHeapFileGetUnderRecycledBuffers has two goroutines read every record
// of a 64-page file through a 2-frame pool. Every miss recycles the other
// goroutine's buffer, so a reader that dereferenced its page outside Read
// would return another record's bytes — and trip the race detector. One of
// them also resets the pool's counters every round, which the other's
// fetches are counting into: a counter written other than atomically trips
// it too.
func TestHeapFileGetUnderRecycledBuffers(t *testing.T) {
	_, bp := newPoolT(t, 128, 2)
	h, err := NewHeapFile(bp, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One record per page: 100 bytes of a page-specific pattern.
	record := func(i int) []byte {
		rec := make([]byte, 100)
		for j := range rec {
			rec[j] = byte(i*7 + j)
		}
		return rec
	}
	const pages = 64
	rids := make([]RID, pages)
	for i := range rids {
		if rids[i], err = h.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() != pages {
		t.Fatalf("file has %d pages, want one record on each of %d", h.NumPages(), pages)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if g == 1 {
					bp.ResetStats()
				}
				for k := 0; k < pages; k++ {
					// The goroutines walk in opposite directions so their
					// misses interleave on different pages.
					i := k
					if g == 1 {
						i = pages - 1 - k
					}
					got, err := getRecord(h, rids[i])
					if err != nil {
						t.Errorf("goroutine %d: Get(%v): %v", g, rids[i], err)
						return
					}
					if !slices.Equal(got, record(i)) {
						t.Errorf("goroutine %d: Get(%v) returned another record's bytes", g, rids[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHeapFileReadDuringAppend has one goroutine append records to a heap
// file while another reads the page's first record. Both touch the page's
// header — the append writes the record count, the read checks the slot
// against it — so an append that wrote the bytes outside the pool's lock
// trips the race detector.
func TestHeapFileReadDuringAppend(t *testing.T) {
	_, bp := newPoolT(t, 2000, 4)
	h, err := NewHeapFile(bp, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := h.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 200 {
			if _, err := h.Append([]byte("next")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if got, err := getRecord(h, first); err != nil || string(got) != "first" {
			t.Errorf("Read(%v) = %q, %v; want the first record", first, got, err)
			break
		}
	}
	<-done
}

// The reference pool: the container/list LRU the frame array replaced, kept
// here as the executable statement of the replacement policy. It models
// what the device and the counters must see — which page is read on which
// fetch, which frame is the victim, what is written back and in which
// order — and nothing else.

type refFrame struct {
	id    PageID
	stamp uint64 // the page's content: the stamp of its last modification
	dirty bool
}

type refPool struct {
	capacity int
	frames   map[PageID]*list.Element
	lru      *list.List        // front = most recently used
	disk     map[PageID]uint64 // stamps on the device
	stats    PoolStats
	reads    []PageID
	writes   []string // "page=stamp", in device order
}

func newRefPool(capacity int) *refPool {
	return &refPool{
		capacity: capacity,
		frames:   make(map[PageID]*list.Element),
		lru:      list.New(),
		disk:     make(map[PageID]uint64),
	}
}

func (r *refPool) writeBack(f *refFrame) {
	r.disk[f.id] = f.stamp
	r.writes = append(r.writes, fmt.Sprintf("%v=%d", f.id, f.stamp))
	f.dirty = false
}

func (r *refPool) fetch(id PageID) *refFrame {
	r.stats.LogicalReads++
	if el, ok := r.frames[id]; ok {
		r.lru.MoveToFront(el)
		return el.Value.(*refFrame)
	}
	r.stats.Misses++
	r.reads = append(r.reads, id)
	return r.admit(id, r.disk[id])
}

// admit makes page id, not resident, the most recently used page, holding
// stamp, after evicting the least recently used page if the pool is full.
func (r *refPool) admit(id PageID, stamp uint64) *refFrame {
	if r.lru.Len() >= r.capacity {
		el := r.lru.Back()
		f := el.Value.(*refFrame)
		if f.dirty {
			r.writeBack(f)
		}
		r.lru.Remove(el)
		delete(r.frames, f.id)
		r.stats.Evictions++
	}
	f := &refFrame{id: id, stamp: stamp}
	r.frames[id] = r.lru.PushFront(f)
	return f
}

func (r *refPool) flush() {
	var dirty []*refFrame
	for el := r.lru.Front(); el != nil; el = el.Next() {
		if f := el.Value.(*refFrame); f.dirty {
			dirty = append(dirty, f)
		}
	}
	slices.SortFunc(dirty, func(a, b *refFrame) int { return comparePageIDs(a.id, b.id) })
	for _, f := range dirty {
		r.writeBack(f)
	}
}

func (r *refPool) dropAll() {
	r.flush()
	r.frames = make(map[PageID]*list.Element)
	r.lru.Init()
}

// loggingDevice records the order of physical transfers.
type loggingDevice struct {
	*Disk
	reads  []PageID
	writes []string
}

func (d *loggingDevice) ReadPageInto(id PageID, buf []byte) error {
	d.reads = append(d.reads, id)
	return d.Disk.ReadPageInto(id, buf)
}

func (d *loggingDevice) WritePage(id PageID, buf []byte) error {
	d.writes = append(d.writes, fmt.Sprintf("%v=%d", id, binary.LittleEndian.Uint64(buf)))
	return d.Disk.WritePage(id, buf)
}

// TestPoolMatchesReferenceLRU replays seeded traces of fetch, read, demote,
// write, create, flush and drop-all against the pool and the reference (a
// created page is admitted as a miss is, but read from nowhere), and after
// every operation requires the same outcome, the same counters, the same
// sequence of device reads (the misses, each one physical read: Misses +
// ReadRetries == Reads + ReadFaults), the same resident and dirty sets (so
// every eviction chose the reference's victim), the same page content under
// Read, and the same write-backs in the same order.
func TestPoolMatchesReferenceLRU(t *testing.T) {
	for _, tc := range []struct {
		seed            int64
		capacity, pages int
	}{
		{1, 1, 4}, {2, 2, 5}, {3, 3, 12}, {4, 4, 9}, {5, 8, 40}, {6, 16, 24}, {7, 5, 5}, {8, 7, 64},
	} {
		t.Run(fmt.Sprintf("seed=%d/cap=%d/pages=%d", tc.seed, tc.capacity, tc.pages), func(t *testing.T) {
			dev := &loggingDevice{Disk: NewDisk(128)}
			bp, err := NewBufferPool(dev, tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefPool(tc.capacity)
			file := dev.CreateFile()
			ids := make([]PageID, tc.pages)
			for i := range ids {
				if ids[i], err = dev.AllocPage(file); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(tc.seed))
			stamp := uint64(0)
			content := func(p *Page) uint64 { return binary.LittleEndian.Uint64(p.Bytes()) }
			demoted := 0 // demotes of a resident page

			for step := 0; step < 4000; step++ {
				// Skewed page choice: half the accesses go to a hot eighth,
				// so hits, misses and re-dirtying all occur.
				id := ids[rng.Intn(len(ids))]
				if rng.Intn(2) == 0 {
					id = ids[rng.Intn(len(ids)/8+1)]
				}
				var what string
				switch op := rng.Intn(100); {
				case op < 30:
					what = fmt.Sprintf("fetch %v", id)
					if _, err := bp.Fetch(id); err != nil {
						t.Fatalf("step %d %s: %v", step, what, err)
					}
					ref.fetch(id)
				case op < 60:
					what = fmt.Sprintf("read %v", id)
					f := ref.fetch(id)
					if err := bp.Read(id, nil, func(p *Page) error {
						if content(p) != f.stamp {
							return fmt.Errorf("page holds stamp %d, want %d", content(p), f.stamp)
						}
						return nil
					}); err != nil {
						t.Fatalf("step %d %s: %v", step, what, err)
					}
				case op < 70:
					what = fmt.Sprintf("demote %v", id)
					bp.Demote(id)
					if el, ok := ref.frames[id]; ok {
						ref.lru.MoveToBack(el)
						demoted++
					}
				case op < 85:
					what = fmt.Sprintf("write %v", id)
					stamp++
					if err := bp.Write(id, func(p *Page) (int, error) {
						binary.LittleEndian.PutUint64(p.Bytes(), stamp)
						return 0, nil
					}); err != nil {
						t.Fatalf("step %d %s: %v", step, what, err)
					}
					f := ref.fetch(id)
					f.stamp, f.dirty = stamp, true
				case op < 90:
					what = "create"
					stamp++
					id, err := bp.create(file, func(p *Page) (int, error) {
						binary.LittleEndian.PutUint64(p.Bytes(), stamp)
						return 0, nil
					})
					if err != nil {
						t.Fatalf("step %d %s: %v", step, what, err)
					}
					ids = append(ids, id)
					ref.admit(id, stamp).dirty = true
				case op < 97:
					what = "flush"
					if err := bp.Flush(); err != nil {
						t.Fatalf("step %d flush: %v", step, err)
					}
					ref.flush()
				default:
					what = "drop all"
					if err := bp.DropAll(); err != nil {
						t.Fatalf("step %d %s: %v", step, what, err)
					}
					ref.dropAll()
				}

				got := bp.Stats()
				if got != ref.stats {
					t.Fatalf("step %d %s: stats %+v, reference %+v", step, what, got, ref.stats)
				}
				if ds := dev.Stats(); got.Misses+got.ReadRetries != ds.Reads+ds.ReadFaults {
					t.Fatalf("step %d %s: %d misses + %d retries, device %d reads + %d faults",
						step, what, got.Misses, got.ReadRetries, ds.Reads, ds.ReadFaults)
				}
				if !slices.Equal(dev.reads, ref.reads) {
					t.Fatalf("step %d %s: device reads diverge:\n got %v\nwant %v", step, what, tail(dev.reads), tail(ref.reads))
				}
				if !slices.Equal(dev.writes, ref.writes) {
					t.Fatalf("step %d %s: write-backs diverge:\n got %v\nwant %v", step, what, tail(dev.writes), tail(ref.writes))
				}
				for _, id := range ids {
					el, resident := ref.frames[id]
					if bp.Resident(id) != resident {
						t.Fatalf("step %d %s: page %v resident = %t, reference %t (wrong victim)",
							step, what, id, bp.Resident(id), resident)
					}
					if resident && bp.Dirty(id) != el.Value.(*refFrame).dirty {
						t.Fatalf("step %d %s: page %v dirty = %t, reference disagrees", step, what, id, bp.Dirty(id))
					}
				}
			}
			if (tc.pages > tc.capacity && ref.stats.Evictions == 0) || len(ref.writes) == 0 ||
				ref.stats.Misses == ref.stats.LogicalReads || demoted == 0 {
				t.Fatalf("trace exercised too little: %+v, %d write-backs, %d demotes",
					ref.stats, len(ref.writes), demoted)
			}
		})
	}
}

// tail returns the last few elements of a log for a readable failure.
func tail[T any](s []T) []T {
	if len(s) > 8 {
		return s[len(s)-8:]
	}
	return s
}
