package storage

import (
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

// Snapshot layout (wire format, whole-file CRC-32C appended):
//
//	magic string, lastSeq,
//	watermark (set, from, to),
//	entries  (n, n×(key, approxDF, list)),
//	probes   (n, n×(key, count, lastProbe, present)),
//	clock,
//	[CRC-32C over everything above : 4 bytes BE]
//
// probes and clock are reserved: they carried usage statistics the store
// no longer keeps. The writer emits an empty probe section and a zero
// clock; the reader still parses a populated section from an older
// snapshot and drops it.
//
// A snapshot is written to snapshot.tmp, fsynced, then renamed into
// place — readers see either the old or the new file, never a torn one.
// lastSeq is the sequence of the newest WAL record whose effect the
// snapshot contains; replay skips records at or below it.

const snapshotMagic = "alvisp2p-snapshot-v1"

// compactLocked folds the current state into a fresh snapshot and resets
// the WAL. Called with e.mu held, which excludes every journaled
// mutation — the captured state and e.seq are mutually consistent.
// Failures are recorded in lastErr and leave the previous snapshot and
// the WAL untouched (nothing is lost; compaction retries later).
func (e *Engine) compactLocked() {
	if err := e.writeSnapshot(); err != nil {
		if e.lastErr == nil {
			e.lastErr = err
		}
		return
	}
	// The snapshot now covers every journaled record: the WAL restarts
	// empty. A crash before this truncate is safe — replay skips records
	// with seq <= the snapshot's lastSeq.
	if e.wal != nil {
		if err := e.wal.Truncate(0); err != nil {
			if e.lastErr == nil {
				e.lastErr = fmt.Errorf("storage: reset wal: %w", err)
			}
			return
		}
		if _, err := e.wal.Seek(0, io.SeekStart); err != nil {
			if e.lastErr == nil {
				e.lastErr = fmt.Errorf("storage: rewind wal: %w", err)
			}
			return
		}
	}
	e.walBytes = 0
}

func (e *Engine) writeSnapshot() error {
	entries := e.mem.ExportState()
	wmFrom, wmTo, wmSet := e.mem.Watermark()

	w := wire.NewWriter(1 << 16)
	w.String(snapshotMagic)
	w.Uvarint(e.seq)
	w.Bool(wmSet)
	w.Uint64(uint64(wmFrom))
	w.Uint64(uint64(wmTo))
	w.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		w.String(en.Key)
		w.Uvarint(uint64(en.ApproxDF))
		en.List.Encode(w)
	}
	w.Uvarint(0) // reserved probe section: no records
	w.Varint(0)  // reserved clock
	body := w.Bytes()
	framed := binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crcTable))

	tmp := e.snapTempPath()
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create snapshot: %w", err)
	}
	if _, err := f.Write(framed); err != nil {
		f.Close()
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, e.snapPath()); err != nil {
		return fmt.Errorf("storage: publish snapshot: %w", err)
	}
	return nil
}

// loadSnapshot restores the snapshot file into the memory state, if one
// exists. It returns the snapshot's lastSeq and whether state was
// loaded. A snapshot that fails its CRC or decode is a hard error:
// unlike a torn WAL tail (an expected crash artifact), a bad snapshot
// means the durable base state is gone, and silently starting empty
// would masquerade as a cold peer.
func (e *Engine) loadSnapshot() (lastSeq uint64, loaded bool, err error) {
	buf, err := os.ReadFile(e.snapPath())
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("storage: read snapshot: %w", err)
	}
	if len(buf) < 4 {
		return 0, false, fmt.Errorf("storage: snapshot truncated")
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return 0, false, fmt.Errorf("storage: snapshot CRC mismatch")
	}
	r := wire.NewReader(body)
	if r.String() != snapshotMagic {
		return 0, false, fmt.Errorf("storage: snapshot magic mismatch")
	}
	lastSeq = r.Uvarint()
	wmSet := r.Bool()
	wmFrom := ids.ID(r.Uint64())
	wmTo := ids.ID(r.Uint64())
	numEntries := r.Uvarint()
	if r.Err() != nil || numEntries > 1<<24 {
		return 0, false, fmt.Errorf("storage: snapshot header corrupt")
	}
	entries := make([]globalindex.EntryState, 0, min(numEntries, 4096))
	for i := uint64(0); i < numEntries; i++ {
		key := r.String()
		df := int64(r.Uvarint())
		list, derr := postings.Decode(r, nil)
		if derr != nil || r.Err() != nil {
			return 0, false, fmt.Errorf("storage: snapshot entry corrupt")
		}
		entries = append(entries, globalindex.EntryState{Key: key, ApproxDF: df, List: list})
	}
	numProbes := r.Uvarint()
	if r.Err() != nil || numProbes > 1<<24 {
		return 0, false, fmt.Errorf("storage: snapshot probes corrupt")
	}
	for i := uint64(0); i < numProbes; i++ {
		// key, count, lastProbe, present: parsed and dropped.
		_, _, _, _ = r.String(), r.Float64(), r.Varint(), r.Bool()
		if r.Err() != nil {
			return 0, false, fmt.Errorf("storage: snapshot probes corrupt")
		}
	}
	r.Varint() // reserved clock
	if r.Err() != nil {
		return 0, false, fmt.Errorf("storage: snapshot trailer corrupt")
	}
	e.mem.RestoreState(entries)
	if wmSet {
		e.mem.SetWatermark(wmFrom, wmTo)
	}
	return lastSeq, true, nil
}
