package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestAllocPageAllocatesByTheExtent allocates 64 pages of a fresh file: the
// device makes one allocation per extent, plus its extent table's (made
// for four extents, then doubled once), and none for a read or a write.
func TestAllocPageAllocatesByTheExtent(t *testing.T) {
	d := NewDisk(DefaultPageSize)
	files := []FileID{d.CreateFile(), d.CreateFile()}
	const pages = 64
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		f := files[next]
		next++
		for range pages {
			if _, err := d.AllocPage(f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := float64(pages/extentPages + 2); allocs > limit {
		t.Errorf("%d AllocPage calls: %.0f allocations, want <= %.0f", pages, allocs, limit)
	}
	buf := make([]byte, DefaultPageSize)
	p := int32(0)
	transfers := testing.AllocsPerRun(100, func() {
		id := PageID{File: files[0], Page: p % pages}
		p += 5
		if err := d.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPageInto(id, buf); err != nil {
			t.Fatal(err)
		}
	})
	if transfers != 0 {
		t.Errorf("a write and a read: %.1f allocations, want 0", transfers)
	}
}

// TestRegrownPagesReadZero fills pages, shrinks and drops the file, and
// grows it again: every page that comes back, in a partly used extent or a
// new one, reads zero under the zero page's checksum.
func TestRegrownPagesReadZero(t *testing.T) {
	const size = 64
	d := NewDisk(size)
	zero := make([]byte, size)
	zeroSum := PageChecksum(zero)
	f, other := d.CreateFile(), d.CreateFile()
	fill := func(n int) {
		t.Helper()
		for p := d.NumPages(f); p < n; p++ {
			id, err := d.AllocPage(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.WritePage(id, bytes.Repeat([]byte{byte(p + 1)}, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkZero := func(what string, from, to int) {
		t.Helper()
		for p := from; p < to; p++ {
			id := PageID{File: f, Page: int32(p)}
			if sum, ok := d.Checksum(id); !ok || sum != zeroSum {
				t.Errorf("%s: page %v checksum %08x, %t; want the zero page's %08x", what, id, sum, ok, zeroSum)
			}
			buf := make([]byte, size)
			if err := d.ReadPageInto(id, buf); err != nil || !bytes.Equal(buf, zero) {
				t.Errorf("%s: page %v reads %v, %v; want zeros", what, id, buf[:4], err)
			}
		}
	}
	alloc := func(n int) {
		t.Helper()
		for d.NumPages(f) < n {
			if _, err := d.AllocPage(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	keep, err := d.AllocPage(other)
	if err != nil {
		t.Fatal(err)
	}

	// 11 pages: one full extent and three pages of the next.
	fill(11)
	alloc(13)
	checkZero("fresh pages in a partly used extent", 11, 13)

	d.resize(f, 5)
	if n := d.NumPages(f); n != 5 {
		t.Fatalf("after the shrink: %d pages, want 5", n)
	}
	if _, ok := d.Checksum(PageID{File: f, Page: 5}); ok {
		t.Error("a page cut by the shrink kept its checksum")
	}
	alloc(7)
	checkZero("allocated after the shrink", 5, 7)
	d.resize(f, 12)
	checkZero("grown by resize after the shrink", 7, 12)
	for p := 0; p < 5; p++ {
		buf := make([]byte, size)
		if err := d.ReadPageInto(PageID{File: f, Page: int32(p)}, buf); err != nil || buf[0] != byte(p+1) {
			t.Errorf("page %d below the shrink: %v, %v; want its bytes kept", p, buf[:4], err)
		}
	}

	fill(12)
	if err := d.DropFile(f); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 12; p++ {
		if _, ok := d.Checksum(PageID{File: f, Page: int32(p)}); ok {
			t.Errorf("page %d of the dropped file still has a checksum", p)
		}
	}
	d.resize(f, 10)
	checkZero("brought back by resize after the drop", 0, 10)
	if _, err := d.AllocPage(f); err != nil {
		t.Fatalf("AllocPage on the file resize brought back: %v", err)
	}
	checkZero("allocated after the drop", 10, 11)
	if _, ok := d.Checksum(keep); !ok {
		t.Error("the other file lost its page")
	}
}

// TestPoolSlabBuffersDoNotAlias makes 40 pages in 40 frames, each filled
// with its own byte, then 40 more, which evicts the first ones, and reads
// all 80 back through misses and evictions: a buffer carved from a slab
// that overlapped its neighbour would corrupt one of them.
func TestPoolSlabBuffersDoNotAlias(t *testing.T) {
	const size, frames = 256, 40
	d, bp := newPoolT(t, size, frames)
	f := d.CreateFile()
	rec := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, size/2) }
	var ids []PageID
	for i := range 2 * frames {
		id, err := bp.create(f, func(p *Page) (int, error) { return p.Insert(rec(i)) })
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	check := func(pass int) {
		t.Helper()
		for i, id := range ids {
			err := bp.Read(id, nil, func(p *Page) error {
				got, err := p.Record(0)
				if err != nil {
					return err
				}
				if p.NumRecords() != 1 || !bytes.Equal(got, rec(i)) {
					return fmt.Errorf("%d records, the first %v…", p.NumRecords(), got[:4])
				}
				return nil
			})
			if err != nil {
				t.Fatalf("pass %d, page %v: %v", pass, id, err)
			}
		}
	}
	check(1)
	check(2)
	if s := bp.Stats(); s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("stats %+v: the reads must miss and evict", s)
	}
}

// TestDiskConcurrentExtents has writers grow, write and read back files of
// their own while another goroutine creates, grows and drops files beside
// them; run under the race detector it checks the device's one lock covers
// its file table and extents.
func TestDiskConcurrentExtents(t *testing.T) {
	const size, writers, pages = 64, 4, 40
	d := NewDisk(size)
	files := make([]FileID, writers)
	for w := range files {
		files[w] = d.CreateFile()
	}
	image := func(w, p int) []byte { return bytes.Repeat([]byte{byte(w*pages + p)}, size) }
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w, f := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			for p := range pages {
				id, err := d.AllocPage(f)
				if err == nil {
					err = d.WritePage(id, image(w, p))
				}
				back := PageID{File: f, Page: int32(p / 2)}
				if err == nil {
					err = d.ReadPageInto(back, buf)
				}
				if err == nil && !bytes.Equal(buf, image(w, p/2)) {
					err = fmt.Errorf("page %v reads %d, want %d", back, buf[0], image(w, p/2)[0])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 20 {
			g := d.CreateFile()
			for range extentPages + 1 {
				if _, err := d.AllocPage(g); err != nil {
					errs <- err
					return
				}
			}
			if err := d.DropFile(g); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	buf := make([]byte, size)
	for w, f := range files {
		if n := d.NumPages(f); n != pages {
			t.Fatalf("file %d: %d pages, want %d", f, n, pages)
		}
		for p := range pages {
			if err := d.ReadPageInto(PageID{File: f, Page: int32(p)}, buf); err != nil || !bytes.Equal(buf, image(w, p)) {
				t.Fatalf("file %d page %d: %v, %v", f, p, buf[0], err)
			}
		}
	}
	if n := d.Files(); n != writers+20 {
		t.Errorf("%d files, want %d", n, writers+20)
	}
}
