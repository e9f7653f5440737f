package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

func plist(peer string, scored ...float64) *postings.List {
	l := &postings.List{}
	for i, s := range scored {
		l.Add(postings.Posting{Ref: postings.DocRef{Peer: transport.Addr(peer), Doc: uint32(i)}, Score: s})
	}
	l.Normalize()
	return l
}

// write replaces the share of list's peer (its first entry's) under key
// with an origin write of sequence seq announcing df.
func write(e globalindex.StorageEngine, key string, list *postings.List, bound, df int, seq uint64) int {
	return e.Write(globalindex.Write{Origin: list.Entries[0].Ref.Peer, Seq: seq, Keys: []string{key},
		Items: []globalindex.AppendItem{{List: list, Bound: bound, AnnouncedDF: df}}})[0]
}

// adopt adopts list as a replica copy of its peer's share with sequence
// seq and DF df.
func adopt(e globalindex.StorageEngine, key string, list *postings.List, df int64, seq uint64) int {
	return e.Adopt(key, []globalindex.Share{{Origin: list.Entries[0].Ref.Peer, Seq: seq, DF: df}}, list)
}

// stateOf flattens an engine's index content into a comparable map of
// key -> (shares, encoded list bytes).
func stateOf(t testing.TB, e globalindex.StorageEngine) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, k := range e.Keys() {
		list, shares, ok := e.Export(k)
		if !ok {
			t.Fatalf("key %q listed but not exportable", k)
		}
		out[k] = fmt.Sprintf("shares=%v list=%x", shares, list.EncodeBytes())
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) *Engine {
	t.Helper()
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sameState(t *testing.T, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state size %d, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %q state %q, want %q", k, got[k], w)
		}
	}
}

// TestPersistReopenRestoresState covers the graceful path: Close writes
// a snapshot, Open restores every entry and the watermark.
func TestPersistReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	if e.Recovered() {
		t.Fatal("fresh directory must not report recovered state")
	}
	e.Put("alpha", plist("p1", 3, 2, 1), 10)
	write(e, "beta", plist("p2", 5), 10, 7, 1)
	write(e, "beta", plist("p3", 4), 10, 2, 1)
	e.Put("gone", plist("p1", 1), 10)
	e.Remove("gone")
	adopt(e, "gamma", plist("p4", 9, 8), 11, 3)
	e.SetWatermark(100, 200)
	want := stateOf(t, e)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if !re.Recovered() {
		t.Fatal("reopened engine must report recovered state")
	}
	sameState(t, stateOf(t, re), want)
	if df, ok := re.ApproxDF("beta"); !ok || df != 9 {
		t.Fatalf("beta approxDF = %d ok=%v, want 9", df, ok)
	}
	if _, ok := re.Peek("gone"); ok {
		t.Fatal("removed key resurrected by recovery")
	}
	if from, to, ok := re.Watermark(); !ok || from != 100 || to != 200 {
		t.Fatalf("watermark = (%d, %d, %v), want (100, 200, true)", from, to, ok)
	}
}

// TestSnapshotCarriesNoProbeState checks that reads leave nothing in
// the durable state: an engine that served 1,000 probes of absent keys
// writes a snapshot byte-identical to one that served none.
func TestSnapshotCarriesNoProbeState(t *testing.T) {
	snapshot := func(probes int) []byte {
		dir := t.TempDir()
		e := mustOpen(t, dir, Options{})
		e.Put("alpha", plist("p1", 3, 2, 1), 10)
		write(e, "beta", plist("p2", 5), 10, 7, 1)
		e.SetWatermark(100, 200)
		for i := 0; i < probes; i++ {
			e.GetPrefix(fmt.Sprintf("absent-%d", i), 0, 0)
			e.Get(fmt.Sprintf("absent-%d", i), 0)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(filepath.Join(dir, "snapshot"))
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if quiet, probed := snapshot(0), snapshot(1000); !bytes.Equal(quiet, probed) {
		t.Fatalf("probes changed the snapshot: %d bytes without, %d with", len(quiet), len(probed))
	}
}

// TestRecoverRefusesV1Directory pins the on-disk version check: a
// snapshot written in version 1 — one accumulated DF per key and the
// reserved probe section — and a version 1 WAL, which had no header, are
// refused with a *FormatError naming the version, not read as empty or
// guessed into per-origin shares.
func TestRecoverRefusesV1Directory(t *testing.T) {
	dir := t.TempDir()
	w := wire.NewWriter(256)
	w.String("alvisp2p-snapshot-v1")
	w.Uvarint(7) // lastSeq
	w.Bool(true)
	w.Uint64(100)
	w.Uint64(200)
	w.Uvarint(1)
	w.String("alpha")
	w.Uvarint(9) // accumulated DF
	plist("p1", 3, 2, 1).Encode(w)
	w.Uvarint(0) // probe section
	w.Varint(0)  // clock
	body := w.Bytes()
	framed := binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crcTable))
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), framed, 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := Open(dir, Options{}); !errors.As(err, &fe) || fe.Version != 1 || fe.File != filepath.Join(dir, "snapshot") {
		t.Fatalf("v1 snapshot: got %v, want a version 1 *FormatError", err)
	}

	// A version 1 WAL: records from the first byte, the first an append.
	dir = t.TempDir()
	rec := wire.NewWriter(64)
	rec.Uvarint(1) // sequence
	rec.Byte(2)    // the version 1 append op
	rec.String("alpha")
	rec.Uvarint(10) // bound
	rec.Uvarint(3)  // announced DF
	plist("p1", 3).Encode(rec)
	payload := rec.Bytes()
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), append(frame, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.As(err, &fe) || fe.Version != 1 {
		t.Fatalf("v1 wal: got %v, want a version 1 *FormatError", err)
	}
}

// journalOptions are the engine options the crash-recovery tests run
// over: the default page-cache journal and an fsync after every record.
var journalOptions = []Options{{}, {Fsync: true}}

// TestPersistCrashKeepsJournaledWrites covers the kill-9 path: the
// engine is never Closed, yet every journaled mutation survives a
// reopen (the WAL was written, only the snapshot is missing).
func TestPersistCrashKeepsJournaledWrites(t *testing.T) {
	for _, opts := range journalOptions {
		t.Run(fmt.Sprintf("fsync=%v", opts.Fsync), func(t *testing.T) {
			dir := t.TempDir()
			e := mustOpen(t, dir, opts)
			e.Put("k1", plist("p1", 2, 1), 10)
			write(e, "k2", plist("p2", 4), 10, 6, 1)
			e.SetWatermark(7, 9)
			want := stateOf(t, e)
			// No Close: simulate the process dying.

			re := mustOpen(t, dir, opts)
			defer re.Close()
			if !re.Recovered() {
				t.Fatal("crash reopen must report recovered state")
			}
			sameState(t, stateOf(t, re), want)
			if from, to, ok := re.Watermark(); !ok || from != 7 || to != 9 {
				t.Fatalf("watermark = (%d, %d, %v)", from, to, ok)
			}
		})
	}
}

// TestRecoverTornWALTail appends garbage after valid records — a torn
// final write — and checks replay keeps everything before the tear and
// truncates the file cleanly.
func TestRecoverTornWALTail(t *testing.T) {
	for _, opts := range journalOptions {
		t.Run(fmt.Sprintf("fsync=%v", opts.Fsync), func(t *testing.T) {
			dir := t.TempDir()
			e := mustOpen(t, dir, opts)
			e.Put("keep1", plist("p1", 1), 10)
			e.Put("keep2", plist("p1", 2), 10)
			want := stateOf(t, e)
			walSize := e.WALSize()

			wal := filepath.Join(dir, "wal.log")
			f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x55, 0xaa, 0x01}); err != nil {
				t.Fatal(err)
			}
			f.Close()

			re := mustOpen(t, dir, opts)
			defer re.Close()
			sameState(t, stateOf(t, re), want)
			fi, err := os.Stat(wal)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != walSize {
				t.Fatalf("torn tail not truncated: wal size %d, want %d", fi.Size(), walSize)
			}
			// The engine keeps journaling cleanly past the truncation.
			re.Put("after", plist("p2", 3), 10)
			re2state := stateOf(t, re)
			re.Close()
			re2 := mustOpen(t, dir, opts)
			defer re2.Close()
			sameState(t, stateOf(t, re2), re2state)
		})
	}
}

// TestRecoverCorruptRecordCRC flips a byte inside the last record's
// payload: the CRC check must reject it, replay stops before it, and no
// corrupt posting list is ever served.
func TestRecoverCorruptRecordCRC(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	e.Put("good", plist("p1", 5, 4), 10)
	want := stateOf(t, e)
	e.Put("bad", plist("p2", 9, 8, 7), 10)

	wal := filepath.Join(dir, "wal.log")
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff // corrupt the tail record's payload
	if err := os.WriteFile(wal, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if _, ok := re.Peek("bad"); ok {
		t.Fatal("corrupt record must not be served")
	}
	sameState(t, stateOf(t, re), want)
}

// TestRecoverIdempotentReplay re-injects an already-compacted WAL (the
// crash window between snapshot rename and WAL truncate): the sequence
// check must skip every record the snapshot already contains, and the
// records that are replayed must not double-count any DF.
func TestRecoverIdempotentReplay(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	write(e, "term", plist("p1", 3), 10, 5, 1)
	write(e, "term", plist("p2", 2), 10, 4, 1)
	wal := filepath.Join(dir, "wal.log")
	saved, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompactNow(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, e)
	// Crash window: the snapshot is in place but the WAL reset "did not
	// happen" — put the pre-compaction records back.
	if err := os.WriteFile(wal, saved, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	sameState(t, stateOf(t, re), want)
	if df, _ := re.ApproxDF("term"); df != 9 {
		t.Fatalf("approxDF = %d, want 9 (replay double-counted the appends)", df)
	}
	// And replay is stable across any number of reopens.
	re.Close()
	re2 := mustOpen(t, dir, Options{})
	defer re2.Close()
	sameState(t, stateOf(t, re2), want)
}

// TestRecoverCloseMidStreamConverges drives the same mutation stream
// into a continuously-running engine and one that is closed and
// reopened midway: both must end byte-identical.
func TestRecoverCloseMidStreamConverges(t *testing.T) {
	ops := func(eng globalindex.StorageEngine, from, to int) {
		for i := from; i < to; i++ {
			key := fmt.Sprintf("key%03d", i%17)
			switch i % 4 {
			case 0:
				eng.Put(key, plist("p1", float64(i), 1), 8)
			case 1:
				write(eng, key, plist("p2", float64(i)), 8, i%5+1, uint64(i))
			case 2:
				adopt(eng, key, plist("p3", float64(i%7)), int64(i%11), uint64(i%13))
			case 3:
				if i%8 == 3 {
					eng.Remove(key)
				} else {
					write(eng, key, plist("p4", 2.5), 8, 2, uint64(i/2))
				}
			}
		}
	}
	straight := globalindex.NewStore()
	ops(straight, 0, 100)

	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	ops(e, 0, 50)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	ops(re, 50, 100)

	sameState(t, stateOf(t, re), stateOf(t, straight))
}

// TestPersistCompaction forces frequent compaction and checks the WAL
// stays bounded while recovery remains exact.
func TestPersistCompaction(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{CompactBytes: 512})
	for i := 0; i < 200; i++ {
		e.Put(fmt.Sprintf("k%03d", i%23), plist("p1", float64(i), 3, 2, 1), 16)
	}
	if sz := e.WALSize(); sz > 4096 {
		t.Fatalf("wal grew to %d bytes despite 512-byte compaction bound", sz)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	want := stateOf(t, e)
	// Crash-reopen (no Close) exercises snapshot + residual WAL replay.
	re := mustOpen(t, dir, Options{CompactBytes: 512})
	defer re.Close()
	sameState(t, stateOf(t, re), want)
}

// TestPersistSnapshotCRCRejected corrupts the snapshot file: Open must
// refuse loudly rather than serve or silently discard the base state.
func TestPersistSnapshotCRCRejected(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	e.Put("k", plist("p1", 1), 10)
	e.Close()
	snap := filepath.Join(dir, "snapshot")
	buf, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(snap, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot must fail Open")
	}
}

// TestPersistEngineMatchesMemory is the differential check: a shared
// random-ish op stream must leave the durable engine (after a crash
// reopen) byte-identical to a plain memory engine.
func TestPersistEngineMatchesMemory(t *testing.T) {
	mem := globalindex.NewStore()
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{CompactBytes: 2048})
	apply := func(eng globalindex.StorageEngine) {
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("t%02d", (i*7)%31)
			switch (i * 13) % 5 {
			case 0:
				eng.Put(key, plist("a", float64(i%9), 4), 6)
			case 1, 2:
				write(eng, key, plist("b", float64(i%5)+0.5), 6, i%4+1, uint64(i%40))
			case 3:
				adopt(eng, key, plist("c", 3, 1), int64(i%13), uint64(i%17))
			case 4:
				eng.Remove(key)
			}
		}
	}
	apply(mem)
	apply(e)
	sameState(t, stateOf(t, e), stateOf(t, mem))
	// Crash + reopen: still identical.
	re := mustOpen(t, dir, Options{CompactBytes: 2048})
	defer re.Close()
	sameState(t, stateOf(t, re), stateOf(t, mem))
	if !bytes.Equal([]byte(fmt.Sprint(re.Keys())), []byte(fmt.Sprint(mem.Keys()))) {
		t.Fatal("key sets diverged")
	}
}

// TestPersistWatermarkJournaled pins that the watermark reaches disk
// through the WAL alone (no snapshot), keyed by ring IDs.
func TestPersistWatermarkJournaled(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	e.SetWatermark(ids.ID(0xdead), ids.ID(0xbeef))
	// crash
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	from, to, ok := re.Watermark()
	if !ok || from != ids.ID(0xdead) || to != ids.ID(0xbeef) {
		t.Fatalf("watermark = (%x, %x, %v)", from, to, ok)
	}
	if !re.Recovered() {
		t.Fatal("a journaled watermark alone must count as recovered state")
	}
}
