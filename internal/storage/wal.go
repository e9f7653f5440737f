package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/wire"
)

// WAL record framing:
//
//	[payload length : uvarint][payload CRC-32C : 4 bytes BE][payload]
//
// and the payload itself is
//
//	[sequence : uvarint][op : byte][op-specific fields, wire format]
//
// The CRC covers the payload only; the length varint is implicitly
// validated by the CRC check (a corrupt length either fails the bounds
// check or frames bytes whose CRC cannot match). Replay stops at the
// first record that does not verify and truncates the file there — the
// torn-tail tolerance a crash mid-append requires.

// Record ops. The set mirrors the StorageEngine mutation surface; reads
// change nothing and are not journaled.
const (
	opPut       byte = 1 // key, bound, list
	opAppend    byte = 2 // key, bound, announcedDF, list
	opRemove    byte = 3 // key
	opAdopt     byte = 4 // key, approxDF, list
	opWatermark byte = 5 // from, to
)

// maxRecordBytes bounds a record a reader will frame; anything larger is
// treated as a corrupt length prefix.
const maxRecordBytes = wire.MaxStringLen + 1024

// crcTable is the Castagnoli table both the WAL and the snapshot use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func encodePut(key string, list *postings.List, bound int) []byte {
	w := wire.NewWriter(32 + 12*list.Len())
	w.Byte(opPut)
	w.String(key)
	w.Uvarint(uint64(bound))
	list.Encode(w)
	return w.Bytes()
}

func encodeAppend(key string, list *postings.List, bound, announcedDF int) []byte {
	w := wire.NewWriter(32 + 12*list.Len())
	w.Byte(opAppend)
	w.String(key)
	w.Uvarint(uint64(bound))
	w.Uvarint(uint64(announcedDF))
	list.Encode(w)
	return w.Bytes()
}

func encodeRemove(key string) []byte {
	w := wire.NewWriter(8 + len(key))
	w.Byte(opRemove)
	w.String(key)
	return w.Bytes()
}

func encodeAdopt(key string, list *postings.List, approxDF int64) []byte {
	w := wire.NewWriter(32 + 12*list.Len())
	w.Byte(opAdopt)
	w.String(key)
	w.Uvarint(uint64(approxDF))
	list.Encode(w)
	return w.Bytes()
}

func encodeWatermark(from, to ids.ID) []byte {
	w := wire.NewWriter(24)
	w.Byte(opWatermark)
	w.Uint64(uint64(from))
	w.Uint64(uint64(to))
	return w.Bytes()
}

// appendRecord frames body (an op payload without its sequence) under
// seq and appends it to the WAL in a single write. It returns the number
// of bytes written.
func (e *Engine) appendRecord(body []byte, seq uint64) (int, error) {
	if e.wal == nil {
		f, err := os.OpenFile(e.walPath(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return 0, fmt.Errorf("storage: open wal: %w", err)
		}
		e.wal = f
	}
	payload := binary.AppendUvarint(nil, seq)
	payload = append(payload, body...)
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)
	if _, err := e.wal.Write(frame); err != nil {
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	if e.opts.Fsync {
		if err := e.wal.Sync(); err != nil {
			return 0, fmt.Errorf("storage: wal sync: %w", err)
		}
	}
	return len(frame), nil
}

// replayWAL applies every verifiable record with sequence > snapSeq to
// the memory state, truncates any torn or corrupt tail, and positions
// the file for appends. It returns how many records it applied.
func (e *Engine) replayWAL(snapSeq uint64) (applied int, err error) {
	f, err := os.OpenFile(e.walPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return 0, fmt.Errorf("storage: open wal: %w", err)
	}
	e.wal = f
	buf, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("storage: read wal: %w", err)
	}
	off := 0
	good := 0 // offset just past the last verified record
	for off < len(buf) {
		plen, n := binary.Uvarint(buf[off:])
		if n <= 0 || plen > maxRecordBytes || off+n+4+int(plen) > len(buf) {
			break // torn or corrupt length prefix: the tail ends here
		}
		crcOff := off + n
		payloadOff := crcOff + 4
		payload := buf[payloadOff : payloadOff+int(plen)]
		if binary.BigEndian.Uint32(buf[crcOff:]) != crc32.Checksum(payload, crcTable) {
			break // corrupt payload: never apply, never serve
		}
		seq, op, ok := e.applyRecord(payload, snapSeq)
		if !ok {
			break // structurally invalid op body: treat like a CRC failure
		}
		if seq > e.seq {
			e.seq = seq
		}
		if seq > snapSeq && op != 0 {
			applied++
		}
		off = payloadOff + int(plen)
		good = off
	}
	if good < len(buf) {
		// Torn tail: drop it so the next append starts on a record
		// boundary instead of extending garbage.
		if err := f.Truncate(int64(good)); err != nil {
			return applied, fmt.Errorf("storage: truncate wal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		return applied, fmt.Errorf("storage: seek wal: %w", err)
	}
	e.walBytes = int64(good)
	return applied, nil
}

// applyRecord decodes one verified payload and applies it to the memory
// state unless the snapshot already contains it (seq <= snapSeq). It
// returns the record's sequence, the op it applied (0 when skipped) and
// whether the payload decoded cleanly.
func (e *Engine) applyRecord(payload []byte, snapSeq uint64) (seq uint64, op byte, ok bool) {
	r := wire.NewReader(payload)
	seq = r.Uvarint()
	opByte := r.Byte()
	if r.Err() != nil {
		return 0, 0, false
	}
	skip := seq <= snapSeq
	switch opByte {
	case opPut:
		key := r.String()
		bound := int(r.Uvarint())
		list, err := postings.Decode(r, nil)
		if err != nil || r.Err() != nil {
			return 0, 0, false
		}
		if !skip {
			e.mem.Put(key, list, bound)
		}
	case opAppend:
		key := r.String()
		bound := int(r.Uvarint())
		df := int(r.Uvarint())
		list, err := postings.Decode(r, nil)
		if err != nil || r.Err() != nil {
			return 0, 0, false
		}
		if !skip {
			e.mem.Append(key, list, bound, df)
		}
	case opRemove:
		key := r.String()
		if r.Err() != nil {
			return 0, 0, false
		}
		if !skip {
			e.mem.Remove(key)
		}
	case opAdopt:
		key := r.String()
		df := int64(r.Uvarint())
		list, err := postings.Decode(r, nil)
		if err != nil || r.Err() != nil {
			return 0, 0, false
		}
		if !skip {
			e.mem.AdoptReplica(key, list, df)
		}
	case opWatermark:
		from := ids.ID(r.Uint64())
		to := ids.ID(r.Uint64())
		if r.Err() != nil {
			return 0, 0, false
		}
		if !skip {
			e.mem.SetWatermark(from, to)
		}
	default:
		return 0, 0, false
	}
	if skip {
		return seq, 0, true
	}
	return seq, opByte, true
}
