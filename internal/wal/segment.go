package wal

import (
	"encoding/binary"
	"slices"

	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
)

// The log is a chain of segment files (DESIGN.md §8). The log appends to the
// newest segment and rolls to a fresh file once it holds segPages pages. Page
// 0 of every segment carries a segment header after its page header, so
// recovery finds the chain without a catalog: the newest segment is the
// highest file whose last written page is a live log page, and the rest hang
// off it by their predecessor links. No data page reads as a live log page:
// a slotted page opens with [count u16][free u16] and free is at least 4, so
// the used length a log header keeps there reads at least 2^18. The header
// lives in the page rather than the record stream because a follower grafts
// the primary's stream bytes (AppendRaw); for the same reason a follower's
// log, whose file IDs mirror the primary's, never rolls.

// segPages is the number of pages a segment holds before the log rolls: the
// granularity at which truncation gives pages back.
const segPages = 32

// segHeader is the size of the segment header: [magic][u32 ordinal][u32
// predecessor file].
const segHeader = 6 + 4 + 4

// segment is one file of the log.
type segment struct {
	file storage.FileID
	ord  int            // position in the chain: its first page is log page ord*segPages
	prev storage.FileID // the segment before it; unused for ord 0
}

// payloadAt returns where a log page's payload starts.
func payloadAt(page int32) int {
	if page == 0 {
		return pageHeader + segHeader
	}
	return pageHeader
}

// payload returns the stream bytes of a checksum-valid log page, nil when
// it carries none: unwritten, or a length the page cannot hold.
func payload(buf []byte, page int32, hd header) []byte {
	off := payloadAt(page)
	if hd.used <= 0 || off+hd.used > len(buf) {
		return nil
	}
	return buf[off : off+hd.used]
}

// putSegHeader writes s's header into page 0 of s.
func putSegHeader(buf []byte, s segment) {
	copy(buf[pageHeader:], magic)
	binary.LittleEndian.PutUint32(buf[pageHeader+6:], uint32(s.ord))
	binary.LittleEndian.PutUint32(buf[pageHeader+10:], uint32(s.prev))
}

// parseSegHeader decodes page 0 of file f, reporting whether it is a live
// log page that opens a segment.
func parseSegHeader(f storage.FileID, buf []byte) (segment, bool) {
	if payload(buf, 0, parseHeader(buf)) == nil || string(buf[pageHeader:pageHeader+6]) != string(magic) {
		return segment{}, false
	}
	le := binary.LittleEndian
	s := segment{file: f, ord: int(le.Uint32(buf[pageHeader+6:])), prev: storage.FileID(le.Uint32(buf[pageHeader+10:]))}
	return s, s.ord == 0 || s.prev < f
}

// read returns the verified log page id, kept or read; a read counts.
func (h *logHead) read(dev storage.Device, id storage.PageID) ([]byte, error) {
	if buf := h.kept[id]; buf != nil {
		return buf, nil
	}
	h.reads++
	return readLogPage(dev, logAddr(id))
}

// header returns the segment file f opens, keeping its page 0. The first
// file of the device is the first segment (Create claims it), so its header
// costs no read.
func (h *logHead) header(dev storage.Device, f storage.FileID) (segment, bool) {
	if f == LogFileID {
		return segment{file: f}, true
	}
	id := storage.PageID{File: f}
	buf, err := h.read(dev, id)
	s, ok := parseSegHeader(f, buf)
	if err == nil && ok {
		h.kept[id] = buf
	}
	return s, err == nil && ok
}

// newest finds the newest segment and its last written page. A page whose
// recorded checksum is the zero page's was never written and costs no read,
// so neither do empty files. Otherwise a file's last written page decides
// it, unless it is torn; then its page 0, which opens a segment, does. The
// pages of data files above the log count as probes.
func (h *logHead) newest(dev storage.Device) (storage.FileID, int32, bool) {
	zero := storage.PageChecksum(make([]byte, dev.PageSize()))
	for f := storage.FileID(dev.Files() - 1); f >= 0; f-- {
		p := int32(dev.NumPages(f) - 1)
		for ; p >= 0; p-- {
			if sum, ok := dev.Checksum(storage.PageID{File: f, Page: p}); ok && sum != zero {
				break
			}
		}
		if p < 0 {
			continue
		}
		id := storage.PageID{File: f, Page: p}
		buf, err := readLogPage(dev, logAddr(id))
		hd := parseHeader(buf)
		switch {
		case err == nil && hd.live(dev.PageSize()) && payload(buf, p, hd) != nil:
			h.reads++
			h.kept[id] = buf
			return f, p, true
		case err != nil && p > 0:
			first, err := readLogPage(dev, logAddr(storage.PageID{File: f}))
			if _, ok := parseSegHeader(f, first); err == nil && ok {
				h.reads += 2
				h.kept[storage.PageID{File: f}] = first
				return f, p - 1, true
			}
			h.probes++
		}
		h.probes++
	}
	return 0, 0, false
}

// chain returns the log's segments still on dev, oldest first — the newest
// and, by their predecessor links, the ones before it down to the first or
// to one already dropped — and the newest's last written page. It is nil
// when dev holds no log.
func (h *logHead) chain(dev storage.Device) ([]segment, int32) {
	f, last, ok := h.newest(dev)
	if !ok {
		return nil, 0
	}
	var segs []segment
	for {
		s, ok := h.header(dev, f)
		if !ok {
			s = segment{file: f}
		}
		segs = append(segs, s)
		if !ok || s.ord == 0 || dev.NumPages(s.prev) == 0 {
			break
		}
		f = s.prev
	}
	slices.Reverse(segs)
	return segs, last
}

// dropSegment gives segment f back to the device and records the drop in
// the flight recorder.
func dropSegment(dev storage.Device, f storage.FileID) error {
	pages := dev.NumPages(f)
	if err := dev.DropFile(f); err != nil {
		return err
	}
	obs.Record(obs.RecLogSegmentDrop, 0, 0, int64(f), int64(pages))
	return nil
}
