package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/globalindex"
	"repro/internal/postings"
)

// goldenOps is a journal exercising every record kind: puts, writes of
// two origins (one withdrawing), an adopted replica copy, a removal and
// the watermark.
var goldenOps = []func(e globalindex.StorageEngine){
	func(e globalindex.StorageEngine) { e.Put("alpha", plist("p1", 3, 2, 1), 10) },
	func(e globalindex.StorageEngine) { write(e, "beta", plist("p2", 5, 4), 10, 7, 3) },
	func(e globalindex.StorageEngine) {
		e.Write(globalindex.Write{Origin: "p3", Seq: 9, Keys: []string{"beta", "beta gamma", "delta"},
			Items: []globalindex.AppendItem{
				{List: plist("p3", 4), Bound: 10, AnnouncedDF: 2},
				{List: plist("p3", 6, 1), Bound: 1},
				{List: plist("p3", 2), Bound: 10, AnnouncedDF: 1},
			}})
	},
	func(e globalindex.StorageEngine) { adopt(e, "gamma", plist("p4", 9, 8), 11, 5) },
	func(e globalindex.StorageEngine) {
		e.Write(globalindex.Write{Origin: "p3", Seq: 12, Keys: []string{"delta"},
			Items: []globalindex.AppendItem{{List: &postings.List{}, Bound: 10}}})
	},
	func(e globalindex.StorageEngine) { e.Remove("alpha") },
	func(e globalindex.StorageEngine) { e.SetWatermark(100, 200) },
	func(e globalindex.StorageEngine) { write(e, "beta", plist("p2", 1), 10, 1, 4) },
}

// fullState is stateOf plus the watermark.
func fullState(t testing.TB, e globalindex.StorageEngine) string {
	from, to, ok := e.Watermark()
	return fmt.Sprintf("%v wm=%v/%d/%d", stateOf(t, e), ok, from, to)
}

// goldenImages journals goldenOps in a durable engine and returns its
// WAL image, the snapshot image a Close compacts it into, and the state
// after each prefix of the ops: states[k] follows the first k.
func goldenImages(t testing.TB) (wal, snap []byte, states []string) {
	dir, err := os.MkdirTemp("", "fuzzrecover")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := globalindex.NewStore()
	states = append(states, fullState(t, mem))
	for _, op := range goldenOps {
		op(e)
		op(mem)
		states = append(states, fullState(t, mem))
	}
	if wal, err = os.ReadFile(filepath.Join(dir, "wal.log")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if snap, err = os.ReadFile(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatal(err)
	}
	return wal, snap, states
}

// FuzzRecover replays mutated images of the on-disk format: the first
// byte picks the file the rest stands for — 0 the WAL of a directory
// without a snapshot, 1 the snapshot of a directory without a WAL.
// Recovery must never panic, and it either reports the directory
// unreadable or restores a state the golden journal passed through: a
// prefix of its WAL, or the whole snapshot.
func FuzzRecover(f *testing.F) {
	wal, snap, states := goldenImages(f)
	f.Add(append([]byte{0}, wal...))
	f.Add(append([]byte{1}, snap...))
	f.Add(append([]byte{0}, wal[:len(wal)/2]...))
	f.Add([]byte{0, 0, walVersion})
	f.Add([]byte{0, 0, walVersion + 1})
	f.Add([]byte{1})
	prefixes := make(map[string]bool, len(states))
	for _, s := range states {
		prefixes[s] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dir := t.TempDir()
		name := "wal.log"
		if data[0] == 1 {
			name = "snapshot"
		}
		if err := os.WriteFile(filepath.Join(dir, name), data[1:], 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(dir, Options{})
		if err != nil {
			return // reported unreadable
		}
		defer e.Close()
		got := fullState(t, e)
		if data[0] == 1 && got != states[len(states)-1] && got != states[0] {
			t.Fatalf("snapshot recovered to a state the journal never held: %s", got)
		}
		if data[0] != 1 && !prefixes[got] {
			t.Fatalf("WAL replay applied no prefix of the journal: %s", got)
		}
	})
}
