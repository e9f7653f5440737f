package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/wire"
)

// WAL file layout: a two-byte header — 0x00, which no record's length
// prefix can be, and the format version — then records framed as
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
// torn-tail tolerance a crash mid-append requires. Records carry
// consecutive sequence numbers, the first at most one past the
// snapshot's; a record out of that order ends the log like a torn one,
// so replay applies a prefix of what was journaled. A log of another
// version, or of version 1, which had no header, is refused with a
// *FormatError.

// walVersion is the on-disk format the WAL and the snapshot share:
// version 2 journals per-origin shares (globalindex.Share).
const walVersion = 2

// walHeader leads every WAL file.
var walHeader = []byte{0, walVersion}

// Record ops. The set mirrors the StorageEngine mutation surface; reads
// change nothing and are not journaled. A write record is one origin's
// whole write, in the MsgMultiAppend frame's form (globalindex.
// EncodeWrite); an adopt record carries its entry as a peer table and
// globalindex.EncodeEntry's bytes against it.
const (
	opPut       byte = 1 // key, bound, list
	opWrite     byte = 2 // origin, seq, n, n×(key, bound, DF, list)
	opRemove    byte = 3 // key
	opAdopt     byte = 4 // key, peers, entry
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

func encodeWrite(wr globalindex.Write) []byte {
	w := wire.NewWriter(64 * len(wr.Keys))
	w.Byte(opWrite)
	globalindex.EncodeWrite(w, wr)
	return w.Bytes()
}

func encodeRemove(key string) []byte {
	w := wire.NewWriter(8 + len(key))
	w.Byte(opRemove)
	w.String(key)
	return w.Bytes()
}

func encodeAdopt(key string, shares []globalindex.Share, list *postings.List) []byte {
	w := wire.NewWriter(48 + 12*list.Len())
	w.Byte(opAdopt)
	w.String(key)
	writeEntry(w, shares, list)
	return w.Bytes()
}

// writeEntry writes one entry self-contained: its peer table, then the
// entry against it.
func writeEntry(w *wire.Writer, shares []globalindex.Share, list *postings.List) {
	peers := globalindex.PeerTableOf(globalindex.EntryState{Shares: shares, List: list})
	peers.Encode(w)
	globalindex.EncodeEntry(w, peers, shares, list)
}

// readEntry reads an entry written by writeEntry.
func readEntry(r *wire.Reader) ([]globalindex.Share, *postings.List, error) {
	peers, err := postings.DecodePeerTable(r, 1<<16)
	if err != nil {
		return nil, nil, err
	}
	return globalindex.DecodeEntry(r, peers)
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
	switch {
	case len(buf) < len(walHeader) && bytes.HasPrefix(walHeader, buf):
		// A new log, or one torn inside its header: start it afresh.
		return 0, e.resetWAL()
	case buf[0] != 0:
		return 0, &FormatError{File: e.walPath(), Version: 1}
	case buf[1] != walVersion:
		return 0, &FormatError{File: e.walPath(), Version: int(buf[1])}
	}
	off := len(walHeader)
	good := off       // offset just past the last verified record
	next := uint64(0) // the sequence the next record must carry; 0 before the first
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
		seq, op, ok := e.applyRecord(payload, snapSeq, next)
		if !ok {
			break // structurally invalid or out of order: treat like a CRC failure
		}
		next = seq + 1
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
// state unless the snapshot already contains it (seq <= snapSeq). next
// is the sequence the record must carry, 0 for the log's first record,
// which must not leave a gap after the snapshot's. It returns the
// record's sequence, the op it applied (0 when skipped) and whether the
// payload decoded cleanly in order.
func (e *Engine) applyRecord(payload []byte, snapSeq, next uint64) (seq uint64, op byte, ok bool) {
	r := wire.NewReader(payload)
	seq = r.Uvarint()
	opByte := r.Byte()
	if r.Err() != nil || next == 0 && (seq == 0 || seq > snapSeq+1) || next != 0 && seq != next {
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
	case opWrite:
		wr, err := globalindex.DecodeWrite(r)
		if err != nil {
			return 0, 0, false
		}
		if !skip {
			e.mem.Write(wr)
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
		shares, list, err := readEntry(r)
		if err != nil || r.Err() != nil {
			return 0, 0, false
		}
		if !skip {
			e.mem.Adopt(key, shares, list)
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

// resetWAL empties the log and writes its header, leaving it positioned
// for appends.
func (e *Engine) resetWAL() error {
	if err := e.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: reset wal: %w", err)
	}
	if _, err := e.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: rewind wal: %w", err)
	}
	if _, err := e.wal.Write(walHeader); err != nil {
		return fmt.Errorf("storage: wal header: %w", err)
	}
	e.walBytes = int64(len(walHeader))
	return nil
}

// FormatError reports a data directory file in an on-disk format this
// engine does not read. Version 1 journaled one accumulated DF per key,
// which cannot be split into the per-origin shares of version 2, so a
// version 1 directory is refused rather than guessed at: the peer
// starts from an empty directory and its replicas and publishers refill
// it.
type FormatError struct {
	File    string
	Version int
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("storage: %s is in on-disk format version %d; this engine reads version %d", e.File, e.Version, walVersion)
}
