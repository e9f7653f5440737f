package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"

	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/wire"
)

// Snapshot layout (wire format, whole-file CRC-32C appended):
//
//	magic string, lastSeq,
//	watermark (set, from, to),
//	peers    (n, n×addr): every origin and listed peer, once,
//	entries  (n, n×(key, shares, list)) against peers (EncodeEntry),
//	[CRC-32C over everything above : 4 bytes BE]
//
// The magic names the on-disk format version the WAL header carries; a
// snapshot of another version is refused with a *FormatError.
//
// A snapshot is written to snapshot.tmp, fsynced, then renamed into
// place — readers see either the old or the new file, never a torn one.
// lastSeq is the sequence of the newest WAL record whose effect the
// snapshot contains; replay skips records at or below it.

// snapshotMagicPrefix is followed by the format version in the magic.
const snapshotMagicPrefix = "alvisp2p-snapshot-v"

var snapshotMagic = snapshotMagicPrefix + strconv.Itoa(walVersion)

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
	if err := e.resetWAL(); err != nil && e.lastErr == nil {
		e.lastErr = err
	}
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
	peers := globalindex.PeerTableOf(entries...)
	peers.Encode(w)
	w.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		w.String(en.Key)
		globalindex.EncodeEntry(w, peers, en.Shares, en.List)
	}
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
	if magic := r.String(); magic != snapshotMagic {
		if v, err := strconv.Atoi(strings.TrimPrefix(magic, snapshotMagicPrefix)); err == nil && strings.HasPrefix(magic, snapshotMagicPrefix) {
			return 0, false, &FormatError{File: e.snapPath(), Version: v}
		}
		return 0, false, fmt.Errorf("storage: snapshot magic mismatch")
	}
	lastSeq = r.Uvarint()
	wmSet := r.Bool()
	wmFrom := ids.ID(r.Uint64())
	wmTo := ids.ID(r.Uint64())
	peers, err := postings.DecodePeerTable(r, 1<<24)
	if err != nil {
		return 0, false, fmt.Errorf("storage: snapshot peer table corrupt")
	}
	numEntries := r.Uvarint()
	if r.Err() != nil || numEntries > 1<<24 {
		return 0, false, fmt.Errorf("storage: snapshot header corrupt")
	}
	entries := make([]globalindex.EntryState, 0, min(numEntries, 4096))
	for i := uint64(0); i < numEntries; i++ {
		key := r.String()
		shares, list, derr := globalindex.DecodeEntry(r, peers)
		if derr != nil || r.Err() != nil {
			return 0, false, fmt.Errorf("storage: snapshot entry corrupt")
		}
		entries = append(entries, globalindex.EntryState{Key: key, Shares: shares, List: list})
	}
	if r.Remaining() != 0 {
		return 0, false, fmt.Errorf("storage: snapshot trailer corrupt")
	}
	e.mem.RestoreState(entries)
	if wmSet {
		e.mem.SetWatermark(wmFrom, wmTo)
	}
	return lastSeq, true, nil
}
