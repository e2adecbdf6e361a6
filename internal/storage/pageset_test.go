package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// callerHeader stands in for the snapshot header a page set follows.
var callerHeader = []byte("caller header")

// pageSetSource builds a small three-file disk: file 0 plays a log whose
// first two pages are dead, file 1 holds a zero page between written ones,
// and file 2 is written throughout.
func pageSetSource(t testing.TB) *Disk {
	t.Helper()
	d := NewDisk(64)
	for f, n := range []int{4, 3, 2} {
		id := d.CreateFile()
		for p := 0; p < n; p++ {
			pid, err := d.AllocPage(id)
			if err != nil {
				t.Fatal(err)
			}
			if f == 1 && p == 1 {
				continue
			}
			if err := d.WritePage(pid, bytes.Repeat([]byte{byte(16*f + p + 1)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// fullSet and deltaSet select as a full snapshot and a delta do, with
// file 0 live from page 2.
func fullSet(f FileID) (int32, bool) {
	if f == 0 {
		return 2, true
	}
	return 0, true
}

func deltaSet(f FileID) (int32, bool) { return 2, f == 0 }

func pageSetStream(t testing.TB, d *Disk, pages []PageID, whole func(FileID) (int32, bool)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WritePageSet(&buf, d, callerHeader, pages, whole); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shape renders a disk's geometry and write count.
func shape(d *Disk) string {
	s := fmt.Sprintf("writes %d files", d.Stats().Writes)
	for f := 0; f < d.Files(); f++ {
		s += fmt.Sprintf(" %d", d.NumPages(FileID(f)))
	}
	return s
}

// TestApplyPageSetVerifiesHeaderFirst flips every byte of a delta's header
// and geometry in turn, each of whose bits can ask the applier for files
// and pages: every flip must fail before the destination gains a file or a
// page or takes a single write.
func TestApplyPageSetVerifiesHeaderFirst(t *testing.T) {
	src := pageSetSource(t)
	stream := pageSetStream(t, src, []PageID{{File: 1, Page: 0}}, deltaSet)
	headerLen := 8 + 5*src.Files() + 8
	for i := 0; i < headerLen; i++ {
		dst := pageSetSource(t)
		dst.CreateFile()
		before := shape(dst)
		bad := bytes.Clone(stream)
		bad[i] ^= 0xFF
		if _, _, err := ApplyPageSet(bytes.NewReader(bad), dst, callerHeader); err == nil {
			t.Errorf("byte %d flipped: applied", i)
		}
		if after := shape(dst); after != before {
			t.Errorf("byte %d flipped: destination went from %s to %s", i, before, after)
		}
	}
	if _, _, err := ApplyPageSet(bytes.NewReader(stream), NewDisk(64), []byte("other header")); err == nil {
		t.Error("a page set applied under a caller header it was not written with")
	}
}

// FuzzApplyPageSet feeds the applier arbitrary streams: every input ends in
// an error or a success, never a panic.
func FuzzApplyPageSet(f *testing.F) {
	src := pageSetSource(f)
	f.Add(pageSetStream(f, src, nil, fullSet))
	f.Add(pageSetStream(f, src, []PageID{{File: 1, Page: 0}, {File: 2, Page: 1}}, deltaSet))
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := pageSetSource(t)
		shipped, _, err := ApplyPageSet(bytes.NewReader(data), dst, callerHeader)
		if err != nil {
			return
		}
		for _, id := range shipped {
			if _, err := ReadPage(dst, id); err != nil {
				t.Errorf("shipped page %v does not read back: %v", id, err)
			}
		}
	})
}
