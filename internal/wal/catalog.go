package wal

import (
	"encoding/binary"
	"fmt"

	"spatialjoin/internal/storage"
)

// The catalog lives in the log: collection and join-index registrations are
// ordinary records inside the transaction that created the object, so a
// crash either preserves both the object's pages and its registration or
// neither. Payloads are length-prefixed strings followed by file IDs. A
// checkpoint's manifest carries the same records, so one codec reads both.

// NewCollection is the decoded payload of a RecNewCollection record.
type NewCollection struct {
	Name      string
	HeapFile  storage.FileID
	IndexFile storage.FileID
}

// NewJoinIndex is the decoded payload of a RecNewJoinIndex record.
type NewJoinIndex struct {
	R, S     string
	Operator string
	PairFile storage.FileID
}

func putString(buf []byte, s string) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	return append(append(buf, n[:]...), s...)
}

func getString(buf []byte) (string, []byte, error) {
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("wal: truncated catalog string")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 0 || len(buf)-4 < n {
		return "", nil, fmt.Errorf("wal: catalog string of %d bytes overruns payload", n)
	}
	return string(buf[4 : 4+n]), buf[4+n:], nil
}

func putFile(buf []byte, f storage.FileID) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(f))
	return append(buf, n[:]...)
}

func getFile(buf []byte) (storage.FileID, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("wal: truncated catalog file id")
	}
	return storage.FileID(binary.LittleEndian.Uint32(buf)), buf[4:], nil
}

// EncodeNewCollection serializes a collection registration.
func EncodeNewCollection(c NewCollection) []byte {
	buf := putString(nil, c.Name)
	buf = putFile(buf, c.HeapFile)
	return putFile(buf, c.IndexFile)
}

// DecodeNewCollection parses a RecNewCollection payload.
func DecodeNewCollection(data []byte) (NewCollection, error) {
	var c NewCollection
	var err error
	if c.Name, data, err = getString(data); err != nil {
		return c, err
	}
	if c.HeapFile, data, err = getFile(data); err != nil {
		return c, err
	}
	if c.IndexFile, data, err = getFile(data); err != nil {
		return c, err
	}
	return c, noTrailing(data)
}

// EncodeNewJoinIndex serializes a join-index registration.
func EncodeNewJoinIndex(j NewJoinIndex) []byte {
	buf := putString(nil, j.R)
	buf = putString(buf, j.S)
	buf = putString(buf, j.Operator)
	return putFile(buf, j.PairFile)
}

// DecodeNewJoinIndex parses a RecNewJoinIndex payload.
func DecodeNewJoinIndex(data []byte) (NewJoinIndex, error) {
	var j NewJoinIndex
	var err error
	if j.R, data, err = getString(data); err != nil {
		return j, err
	}
	if j.S, data, err = getString(data); err != nil {
		return j, err
	}
	if j.Operator, data, err = getString(data); err != nil {
		return j, err
	}
	if j.PairFile, data, err = getFile(data); err != nil {
		return j, err
	}
	return j, noTrailing(data)
}

// noTrailing rejects the bytes a decoder left over.
func noTrailing(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("wal: %d trailing bytes after payload", len(rest))
	}
	return nil
}

// putCatalog appends one manifest entry: [u8 type][u32 length][payload].
func putCatalog(buf []byte, r Record) []byte {
	return putString(append(buf, byte(r.Type)), string(r.Data))
}

// getCatalog reads one manifest entry and checks its payload with the
// registration's own decoder.
func getCatalog(buf []byte) (Record, []byte, error) {
	if len(buf) < 1 {
		return Record{}, nil, fmt.Errorf("wal: truncated catalog entry")
	}
	r := Record{Type: RecordType(buf[0])}
	data, rest, err := getString(buf[1:])
	if err != nil {
		return r, nil, err
	}
	r.Data = []byte(data)
	switch r.Type {
	case RecNewCollection:
		_, err = DecodeNewCollection(r.Data)
	case RecNewJoinIndex:
		_, err = DecodeNewJoinIndex(r.Data)
	default:
		err = fmt.Errorf("wal: %v is not a catalog record type", r.Type)
	}
	return r, rest, err
}
