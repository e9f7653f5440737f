package globalindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// multiItems builds count distinct append items with small scored lists.
func multiItems(count, listLen int) []AppendItem {
	items := make([]AppendItem, count)
	for i := range items {
		l := &postings.List{}
		for j := 0; j < listLen; j++ {
			l.Add(post(fmt.Sprintf("src%d", i%4), uint32(j), float64(listLen-j)))
		}
		l.Normalize()
		items[i] = AppendItem{
			Terms:       []string{fmt.Sprintf("term%03d", i)},
			List:        l,
			Bound:       100,
			AnnouncedDF: listLen,
		}
	}
	return items
}

// TestMultiAppendMatchesSequential: sixty one-item batches and one
// sixty-item batch leave identical rings.
func TestMultiAppendMatchesSequential(t *testing.T) {
	_, seqIdxs, _ := ring(t, 10)
	_, batIdxs, _ := ring(t, 10)
	items := multiItems(60, 5)

	for _, it := range items {
		if _, err := appendOne(context.Background(), seqIdxs[0], it.Terms, it.List, it.Bound, it.AnnouncedDF); err != nil {
			t.Fatal(err)
		}
	}
	ns, err := batIdxs[0].MultiAppend(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if ns[i] != it.List.Len() {
			t.Fatalf("item %d stored %d, want %d", i, ns[i], it.List.Len())
		}
	}
	// The two rings (identical IDs: same seed) must hold identical slices.
	for i := range seqIdxs {
		sk, bk := seqIdxs[i].Store().Keys(), batIdxs[i].Store().Keys()
		if strings.Join(sk, "|") != strings.Join(bk, "|") {
			t.Fatalf("peer %d keys differ:\nseq  %v\nbatch %v", i, sk, bk)
		}
		for _, k := range sk {
			sl, _ := seqIdxs[i].Store().Peek(k)
			bl, _ := batIdxs[i].Store().Peek(k)
			if sl.Len() != bl.Len() || sl.Truncated != bl.Truncated {
				t.Fatalf("peer %d key %q: seq (%d,%v) batch (%d,%v)",
					i, k, sl.Len(), sl.Truncated, bl.Len(), bl.Truncated)
			}
		}
	}
}

// TestPublishFramesAnswerInCallerOrder: the publish frames carry their
// items in key order and answer in the caller's. The items come in
// reverse key order, each key with a list length and a DF of its own,
// and one key twice — stable order applies its two appends as given.
func TestPublishFramesAnswerInCallerOrder(t *testing.T) {
	_, idxs, _ := ring(t, 6)
	var items []AppendItem
	var infos []KeyInfoItem
	var want []int
	for i := 20; i > 0; i-- {
		l := &postings.List{}
		for d := 0; d < i; d++ {
			l.Add(post("src", uint32(d), float64(d+1)))
		}
		l.Normalize()
		terms := []string{fmt.Sprintf("order%02d", i)}
		items = append(items, AppendItem{Terms: terms, List: l, Bound: 100, AnnouncedDF: 10 * i})
		infos = append(infos, KeyInfoItem{Terms: terms})
		want = append(want, i)
	}
	again := &postings.List{Entries: []postings.Posting{post("src2", 100, 1), post("src2", 101, 1)}}
	items = append(items, AppendItem{Terms: []string{"order05"}, List: again, Bound: 100, AnnouncedDF: 2})
	want = append(want, 7)
	ns, err := idxs[0].MultiAppend(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ns, want) {
		t.Fatalf("stored lengths %v, want %v", ns, want)
	}
	res, err := idxs[0].MultiKeyInfo(context.Background(), infos)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range res {
		i := 20 - j
		wantDF := int64(10 * i)
		if i == 5 {
			wantDF += 2
		}
		if !r.Present || r.DF != wantDF {
			t.Errorf("order%02d: present %v, DF %d; want DF %d", i, r.Present, r.DF, wantDF)
		}
	}
}

func TestMultiAppendAndMultiGetEndToEnd(t *testing.T) {
	_, idxs, net := ring(t, 12)
	var puts []AppendItem
	for i := 0; i < 40; i++ {
		l := &postings.List{}
		for j := 0; j < 8; j++ {
			l.Add(post("pub", uint32(j), float64(8-j)))
		}
		l.Normalize()
		puts = append(puts, AppendItem{Terms: []string{fmt.Sprintf("key%02d", i)}, List: l, Bound: 5})
	}
	ns, err := idxs[1].MultiAppend(context.Background(), puts)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		if n != 5 {
			t.Fatalf("put %d stored %d, want bound 5", i, n)
		}
	}

	gets := make([]GetItem, len(puts))
	for i, p := range puts {
		gets[i] = GetItem{Terms: p.Terms, MaxResults: 0}
	}
	// Also probe a miss in the same batch.
	gets = append(gets, GetItem{Terms: []string{"no-such-key"}})

	before := net.Meter().Snapshot().Messages
	res, err := idxs[2].MultiGet(context.Background(), gets, ReadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	batchMsgs := net.Meter().Snapshot().Messages - before

	for i := range puts {
		if !res[i].Found || res[i].List.Len() != 5 || !res[i].List.Truncated {
			t.Fatalf("get %d: %+v", i, res[i])
		}
	}
	if res[len(res)-1].Found {
		t.Fatal("missing key reported found")
	}

	// The same fetches as one-item batches must cost meaningfully more
	// round trips. They route through the same resolver cache (repeat
	// lookups skip the ring walk), so the margin is 1.5x — batching wins
	// on the data round trips themselves.
	before = net.Meter().Snapshot().Messages
	for _, g := range gets {
		if _, _, _, err := getOne(context.Background(), idxs[3], g.Terms, g.MaxResults, ReadPrimary); err != nil {
			t.Fatal(err)
		}
	}
	seqMsgs := net.Meter().Snapshot().Messages - before
	if batchMsgs*3 > seqMsgs*2 {
		t.Fatalf("batched gets cost %d messages, sequential %d (want >=1.5x saving)", batchMsgs, seqMsgs)
	}
	t.Logf("MultiGet %d messages vs sequential %d", batchMsgs, seqMsgs)
}

func TestMultiGetRecordsProbes(t *testing.T) {
	_, idxs, _ := ring(t, 6)
	counters := make([]*probeCounter, len(idxs))
	for i, ix := range idxs {
		counters[i] = newProbeCounter()
		ix.SetProbeHook(counters[i].hook)
	}
	if _, err := idxs[0].MultiGet(context.Background(), []GetItem{{Terms: []string{"absent"}}, {Terms: []string{"absent"}}}, ReadPrimary); err != nil {
		t.Fatal(err)
	}
	// Whichever peer is responsible recorded exactly two probes.
	total := 0
	for _, c := range counters {
		n, _ := c.get("absent")
		total += n
	}
	if total != 2 {
		t.Fatalf("probe count across ring = %d, want 2", total)
	}
}

// --- wire round trips at the handler level ------------------------------

// selfIndex returns a single-node index whose handlers can be invoked
// directly for frame-level tests.
func selfIndex(t *testing.T) *Index {
	t.Helper()
	_, idxs, _ := ring(t, 1)
	return idxs[0]
}

func TestMultiAppendWireRoundTripBounds(t *testing.T) {
	ix := selfIndex(t)
	items := []struct {
		key   string
		bound int
		n     int
	}{
		{"alpha", 3, 10},      // truncated to bound
		{"beta", 0, 4},        // bound 0 = hard cap only
		{"gamma", 1 << 30, 2}, // bound above HardCap clamps to HardCap
	}
	var keys []string
	var appends []AppendItem
	for _, it := range items {
		l := &postings.List{}
		for j := 0; j < it.n; j++ {
			l.Add(post("p", uint32(j), float64(it.n-j)))
		}
		l.Normalize()
		keys = append(keys, it.key)
		appends = append(appends, AppendItem{List: l, Bound: it.bound})
	}
	msg, resp, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, appendFrame(readOwner, keys, appends))
	if err != nil || msg != MsgMultiAppend {
		t.Fatalf("handler: %v (msg 0x%02x)", err, msg)
	}
	r := wire.NewReader(resp)
	if n := r.Uvarint(); n != uint64(len(items)) {
		t.Fatalf("response count %d", n)
	}
	wantLens := []uint64{3, 4, 2}
	for i, want := range wantLens {
		if got := r.Uvarint(); got != want {
			t.Fatalf("item %d stored %d, want %d", i, got, want)
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("response trailer: err=%v remaining=%d", r.Err(), r.Remaining())
	}
	// Truncation marks follow the store rules.
	if l, _ := ix.Store().Peek("alpha"); !l.Truncated || l.Len() != 3 {
		t.Fatalf("alpha: %d truncated=%v", l.Len(), l.Truncated)
	}
	if l, _ := ix.Store().Peek("beta"); l.Truncated {
		t.Fatal("beta must not be truncated under the hard cap")
	}
}

func TestMultiAppendWireRoundTripAnnouncedDF(t *testing.T) {
	ix := selfIndex(t)
	l := &postings.List{Entries: []postings.Posting{post("p", 1, 2), post("p", 2, 1)}}
	body := appendFrame(readOwner, []string{"df-key"}, []AppendItem{{List: l, Bound: 10, AnnouncedDF: 50}})
	_, resp, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, body)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(resp)
	if n := r.Uvarint(); n != 1 {
		t.Fatalf("count %d", n)
	}
	if got := r.Uvarint(); got != 2 {
		t.Fatalf("stored %d", got)
	}
	if df, present := ix.Store().ApproxDF("df-key"); df != 50 || !present {
		t.Fatalf("announced DF not honoured: %d %v", df, present)
	}
	// The list is incomplete relative to the announced DF.
	if lst, _ := ix.Store().Peek("df-key"); !lst.Truncated {
		t.Fatal("list with announcedDF beyond stored length must be marked truncated")
	}
}

// readItem is one (key, cursor, chunk) item of a MsgRead request.
type readItem struct {
	key           string
	cursor, chunk uint64
}

// readRequest encodes one MsgRead request body.
func readRequest(mode uint8, items ...readItem) []byte {
	w := wire.NewWriter(64)
	w.Byte(mode)
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.String(it.key)
		w.Uvarint(it.cursor)
		w.Uvarint(it.chunk)
	}
	return w.Bytes()
}

func TestReadWireRoundTrip(t *testing.T) {
	ix := selfIndex(t)
	big := &postings.List{}
	for j := 0; j < 20; j++ {
		big.Add(post("p", uint32(j), float64(20-j)))
	}
	big.Normalize()
	ix.Store().Put("stored", big, 0)

	// Every mode that consults the store answers the same layout: a
	// bounded chunk with its horizon, a whole-list continuation, a miss.
	for _, mode := range []uint8{readOwner, readAny} {
		body := readRequest(mode, readItem{"stored", 0, 6}, readItem{"stored", 6, 0}, readItem{"missing", 0, 0})
		msg, resp, err := ix.handleRead(context.Background(), "tester", MsgRead, body)
		if err != nil || msg != MsgRead {
			t.Fatalf("mode %d: %v (msg 0x%02x)", mode, err, msg)
		}
		r := wire.NewReader(resp)
		if n := r.Uvarint(); n != 3 {
			t.Fatalf("mode %d: count %d", mode, n)
		}
		// The answer names no peer; the decoder is told who answered.
		self := wire.NewWriter(8)
		self.String(string(ix.node.Self().Addr))
		if bytes.Contains(resp, self.Bytes()) {
			t.Fatalf("mode %d: answer carries the serving address: % x", mode, resp)
		}
		a, err := readTopKAnswer(r, "answering-copy")
		if err != nil || !a.found || a.wantIndex || len(a.entries) != 6 || a.cursor != 6 || a.total != 20 || a.truncated {
			t.Fatalf("mode %d: bounded chunk %+v err=%v", mode, a, err)
		}
		if a.bound != big.Entries[5].Score || a.peer != "answering-copy" {
			t.Fatalf("mode %d: bound %v peer %q", mode, a.bound, a.peer)
		}
		a, err = readTopKAnswer(r, "answering-copy")
		if err != nil || len(a.entries) != 14 || a.cursor != 20 || a.entries[0] != big.Entries[6] {
			t.Fatalf("mode %d: continuation to the end %+v err=%v", mode, a, err)
		}
		a, err = readTopKAnswer(r, "answering-copy")
		if err != nil || a.found || a.wantIndex {
			t.Fatalf("mode %d: missing key %+v err=%v", mode, a, err)
		}
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("mode %d: trailer: %v, %d", mode, r.Err(), r.Remaining())
		}
	}
	// The one-shot client turns the cap into MsgRead's chunk and marks
	// the list it cut short.
	lst, found, _, err := getOne(context.Background(), ix, []string{"stored"}, 6, ReadPrimary)
	if err != nil || !found || lst.Len() != 6 || !lst.Truncated {
		t.Fatalf("capped one-shot read: %+v found=%v err=%v", lst, found, err)
	}
	lst, _, _, err = getOne(context.Background(), ix, []string{"stored"}, 0, ReadPrimary)
	if err != nil || lst.Len() != 20 || lst.Truncated || lst.Entries[19] != big.Entries[19] {
		t.Fatalf("whole-list one-shot read: %+v err=%v", lst, err)
	}
}

// rawAppendItem hand-writes one MultiAppend item whose key is the
// previous key's first shared bytes then suffix, and whose one-posting
// list names its peer by index into the frame's peer table, which holds
// the origin alone.
func rawAppendItem(w *wire.Writer, shared uint64, suffix string, peer uint64) {
	w.Uvarint(shared)
	w.String(suffix)
	w.Uvarint(10)  // bound
	w.Uvarint(1)   // announced DF
	w.Byte(1 << 2) // list flags: peers by index
	w.Uvarint(1)   // groups
	w.Uvarint(peer)
	w.Uvarint(1) // count
	w.Uvarint(1) // document gap
	w.Float64(1)
}

func TestMultiHandlersRejectMalformed(t *testing.T) {
	ix := selfIndex(t)
	longKey := strings.Repeat("k", 1<<12)
	l := &postings.List{Entries: []postings.Posting{post("p", 1, 1)}}
	good := appendFrame(readOwner, []string{"k"}, []AppendItem{{List: l, Bound: 10}})[1:]

	cases := map[string][]byte{
		"empty-truncated":   good[:1],
		"hostile count":     func() []byte { w := wire.NewWriter(8); w.Uvarint(uint64(MaxBatchItems) + 1); return w.Bytes() }(),
		"overflow count":    func() []byte { w := wire.NewWriter(16); w.Uvarint(1 << 63); return w.Bytes() }(), // would wrap negative through int()
		"count beyond body": func() []byte { w := wire.NewWriter(8); w.Uvarint(3); w.String("k"); return w.Bytes() }(),
		"garbage":           {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for name, body := range cases {
		// MultiAppend reads its item count after the origin and its
		// sequence number: an empty origin and sequence 1 bring each body
		// to the count, and the bare body breaks the origin itself.
		if _, _, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, append([]byte{readOwner, 0, 1}, body...)); err == nil {
			t.Errorf("MultiAppend accepted %s body after an origin", name)
		}
		if _, _, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, append([]byte{readOwner}, body...)); err == nil {
			t.Errorf("MultiAppend accepted %s body", name)
		}
		if _, _, err := ix.handleRead(context.Background(), "tester", MsgRead, append([]byte{readAny}, body...)); err == nil {
			t.Errorf("Read accepted %s body", name)
		}
	}
	// A mode byte beyond readSoft is corrupt, whatever follows it.
	if _, _, err := ix.handleRead(context.Background(), "tester", MsgRead, readRequest(readSoft+1, readItem{"k", 0, 0})); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("unknown read mode: got %v, want ErrCorrupt", err)
	}
	// A malformed later item must not leave earlier items applied.
	two := appendFrame(readOwner, []string{"first", "second"}, []AppendItem{{List: l, Bound: 10}, {List: l, Bound: 10}})
	if _, _, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, two[:len(two)-1]); err == nil {
		t.Fatal("truncated second item accepted")
	}
	if _, ok := ix.Store().Peek("first"); ok {
		t.Fatal("partial batch applied before rejection")
	}

	// The frame-scoped parts of a MultiAppend frame: its origin, whose
	// documents alone its lists may name, and its front-coded keys.
	appendCases := map[string]func(w *wire.Writer){
		"peer index past the origin": func(w *wire.Writer) {
			w.String("p")
			w.Uvarint(1)
			w.Uvarint(1)
			rawAppendItem(w, 0, "k", 1)
		},
		"list naming another peer": func(w *wire.Writer) {
			w.String("p")
			w.Uvarint(1)
			w.Uvarint(1)
			w.Uvarint(0)
			w.String("k")
			w.Uvarint(10) // bound
			w.Uvarint(1)  // announced DF
			(&postings.List{Entries: []postings.Posting{post("q", 1, 1)}}).Encode(w)
		},
		"shared prefix beyond the previous key": func(w *wire.Writer) {
			w.String("p")
			w.Uvarint(1)
			w.Uvarint(2)
			rawAppendItem(w, 0, "k", 0)
			rawAppendItem(w, 2, "x", 0)
		},
		"shared prefix on the first key": func(w *wire.Writer) {
			w.String("p")
			w.Uvarint(1)
			w.Uvarint(1)
			rawAppendItem(w, 1, "k", 0)
		},
		// A few bytes per item would otherwise rebuild the whole long
		// key each time.
		"shared prefix beyond maxSharedPrefix": func(w *wire.Writer) {
			w.String("p")
			w.Uvarint(1)
			w.Uvarint(MaxBatchItems)
			rawAppendItem(w, 0, longKey, 0)
			for i := 1; i < MaxBatchItems; i++ {
				rawAppendItem(w, uint64(len(longKey)), "x", 0)
			}
		},
	}
	for name, build := range appendCases {
		w := wire.NewWriter(64)
		w.Byte(readAny)
		build(w)
		if _, _, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, w.Bytes()); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("MultiAppend %s: got %v, want ErrCorrupt", name, err)
		}
	}
	if keys := ix.Store().Keys(); len(keys) != 0 {
		t.Fatalf("rejected frames applied %d keys", len(keys))
	}
	// MultiKeyInfo reads its keys through the same coder.
	infoCases := map[string]func(w *wire.Writer){
		"shared prefix beyond the previous key": func(w *wire.Writer) {
			w.Uvarint(2)
			w.Uvarint(0)
			w.String("k")
			w.Uvarint(2)
			w.String("x")
		},
		"shared prefix beyond maxSharedPrefix": func(w *wire.Writer) {
			w.Uvarint(MaxBatchItems)
			w.Uvarint(0)
			w.String(longKey)
			for i := 1; i < MaxBatchItems; i++ {
				w.Uvarint(uint64(len(longKey)))
				w.String("x")
			}
		},
	}
	for name, build := range infoCases {
		w := wire.NewWriter(64)
		build(w)
		if _, _, err := ix.handleMultiKeyInfo(context.Background(), "tester", MsgMultiKeyInfo, w.Bytes()); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("MultiKeyInfo %s: got %v, want ErrCorrupt", name, err)
		}
	}
	// The same frame with the index in range is accepted: the cases above
	// fail on the one field each breaks.
	w := wire.NewWriter(64)
	w.Byte(readAny)
	w.String("p")
	w.Uvarint(1)
	w.Uvarint(2)
	rawAppendItem(w, 0, "k", 0)
	rawAppendItem(w, 1, "x", 0)
	if _, _, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, w.Bytes()); err != nil {
		t.Fatalf("well-formed hand-built frame: %v", err)
	}
	if got := ix.Store().Keys(); !reflect.DeepEqual(got, []string{"k", "kx"}) {
		t.Fatalf("stored keys %v, want [k kx]", got)
	}
}

// TestKeyCoderRejectsOverlongKey pins the last of the key coder's
// bounds: a key rebuilt from a shared prefix and a suffix may not exceed
// the longest string the wire carries, though each part alone does not.
func TestKeyCoderRejectsOverlongKey(t *testing.T) {
	if testing.Short() {
		t.Skip("holds a 64 MiB key")
	}
	kc := keyCoder{prev: strings.Repeat("k", maxSharedPrefix)}
	w := wire.NewWriter(wire.MaxStringLen + 16)
	w.Uvarint(maxSharedPrefix)
	w.String(strings.Repeat("x", wire.MaxStringLen-maxSharedPrefix+1))
	if _, err := kc.read(wire.NewReader(w.Bytes())); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("rebuilt key of MaxStringLen+1 bytes: got %v, want ErrCorrupt", err)
	}
}

// TestKeyCoderCapsSharedPrefix checks that keys sharing more than
// maxSharedPrefix bytes still round-trip: the writer takes only that
// much of the previous key and spells out the rest.
func TestKeyCoderCapsSharedPrefix(t *testing.T) {
	stem := strings.Repeat("s", maxSharedPrefix+100)
	keys := []string{stem + "a", stem + "b", stem + "b", "t"}
	w := wire.NewWriter(1024)
	writeKeys(w, keys, []int{0, 1, 2, 3})
	r := wire.NewReader(w.Bytes())
	got, err := readKeys(r)
	if err != nil || !reflect.DeepEqual(got, keys) || r.Remaining() != 0 {
		t.Fatalf("round trip: %d keys, err %v, %d bytes left", len(got), err, r.Remaining())
	}
	// Past the count and the first key, spelled in full, the second
	// key's shared length.
	r = wire.NewReader(w.Bytes())
	r.Uvarint()
	r.Uvarint()
	_ = r.String()
	if shared := r.Uvarint(); shared != maxSharedPrefix {
		t.Fatalf("second key shares %d bytes, want %d", shared, maxSharedPrefix)
	}
}

// TestAppendFrameGolden pins the MultiAppend frame byte for byte: the
// mode, the origin spelled once with its sequence number — a wall-clock
// millisecond count takes 6 bytes as a uvarint — the count, then each
// item's front-coded key, bound, announced DF and list naming its peer
// by index 0.
func TestAppendFrameGolden(t *testing.T) {
	const seq = 1_760_000_000_000 // 2025-10-09 in Unix milliseconds
	items := []AppendItem{
		{List: &postings.List{Entries: []postings.Posting{post("h:1", 3, 2)}}, Bound: 300, AnnouncedDF: 1},
		{List: &postings.List{}, Bound: 300},
	}
	w := wire.NewWriter(64)
	w.Byte(readOwner)
	writeAppendFrame(w, "h:1", seq, []string{"ab", "ac"}, items, []int{0, 1})
	want := []byte{
		readOwner,
		3, 'h', ':', '1', // origin
		0x80, 0x80, 0xb3, 0xc1, 0x9c, 0x33, // seq
		2,              // items
		0, 2, 'a', 'b', // key: shares 0, suffix "ab"
		0xac, 0x02, // bound 300
		1,          // announced DF
		1 << 2,     // list flags: peers by index
		1, 0, 1, 3, // one group: peer 0, one entry, document 3
		0x40, 0, 0, 0, 0, 0, 0, 0, // score 2.0
		1, 1, 'c', // key: shares "a", suffix "c"
		0xac, 0x02, // bound 300
		0,         // announced DF
		1 << 2, 0, // empty list
	}
	if got := w.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("frame\n got % x\nwant % x", got, want)
	}
}

// FuzzAppendFrame drives the MultiAppend handler and the frame decoder
// with arbitrary bytes: neither may panic, the handler accepts exactly
// the frames that decode under a known mode, and whatever decodes
// re-encodes through the frame's one encoder to a frame that decodes to
// the same items.
func FuzzAppendFrame(f *testing.F) {
	lists := []*postings.List{
		{Entries: []postings.Posting{post("10.0.0.7:7001", 3, 2.5), post("10.0.0.7:7001", 9, 1)}},
		{Entries: []postings.Posting{post("10.0.0.7:7001", 4, 1), post("10.0.0.7:7001", 1, 0.5)}, Truncated: true},
		{},
	}
	f.Add(appendFrame(readOwner, []string{"alpha", "alpha beta", "gamma"},
		[]AppendItem{{List: lists[0], Bound: 10, AnnouncedDF: 2}, {List: lists[1], Bound: 1}, {List: lists[2]}}))
	f.Add(appendFrame(readAny, []string{"k", "k"}, []AppendItem{{List: lists[1], Bound: 5}, {List: lists[0], Bound: 5}}))
	f.Add(appendBody(readAny))
	f.Add(appendBody(readSoft, "mode"))
	for _, build := range []func(w *wire.Writer){
		func(w *wire.Writer) { w.String("p"); w.Uvarint(1); w.Uvarint(MaxBatchItems + 1) },
		func(w *wire.Writer) { w.String("p"); w.Uvarint(1); w.Uvarint(1); rawAppendItem(w, 0, "k", 1) },
		func(w *wire.Writer) {
			w.String("p")
			w.Uvarint(1)
			w.Uvarint(2)
			rawAppendItem(w, 0, "k", 0)
			rawAppendItem(w, 2, "x", 0)
		},
		func(w *wire.Writer) {
			w.String("p")
			w.Uvarint(1)
			w.Uvarint(2)
			rawAppendItem(w, 0, strings.Repeat("k", maxSharedPrefix+1), 0)
			rawAppendItem(w, maxSharedPrefix+1, "x", 0)
		},
	} {
		w := wire.NewWriter(64)
		w.Byte(readOwner)
		build(w)
		f.Add(w.Bytes())
	}
	f.Add([]byte{readAny, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	net := transport.NewMem()
	d := transport.NewDispatcher()
	node := dht.NewNode(42, net.Endpoint("fuzz", d.Serve), d, dht.Options{})
	dht.BuildOracleTables([]*dht.Node{node})
	ix := New(node, d)
	store := ix.Store().(*Memory)

	f.Fuzz(func(t *testing.T, data []byte) {
		store.RestoreState(nil)
		_, resp, err := ix.handleMultiAppend(context.Background(), "fuzzer", MsgMultiAppend, data)
		var wr Write
		derr := wire.ErrCorrupt
		if len(data) > 0 {
			wr, derr = DecodeWrite(wire.NewReader(data[1:]))
		}
		keys, items := wr.Keys, wr.Items
		known := len(data) > 0 && (data[0] == readOwner || data[0] == readAny)
		if (err == nil) != (derr == nil && known) {
			t.Fatalf("handler error %v, decoder error %v, mode known %v", err, derr, known)
		}
		if err == nil {
			if n := wire.NewReader(resp).Uvarint(); n != uint64(len(items)) {
				t.Fatalf("handler served %d of %d items", n, len(items))
			}
		}
		if derr != nil {
			return
		}
		idx := make([]int, len(items))
		for i := range idx {
			idx[i] = i
		}
		w := wire.NewWriter(len(data))
		writeAppendFrame(w, wr.Origin, wr.Seq, keys, items, idx)
		wr2, err := DecodeWrite(wire.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		keys2, items2 := wr2.Keys, wr2.Items
		if wr2.Origin != wr.Origin || wr2.Seq != wr.Seq || !slices.Equal(keys2, keys) {
			t.Fatalf("origin %q seq %d keys %q re-decode as %q, %d, %q", wr.Origin, wr.Seq, keys, wr2.Origin, wr2.Seq, keys2)
		}
		for i, it := range items {
			it2 := items2[i]
			if it2.Bound != it.Bound || it2.AnnouncedDF != it.AnnouncedDF || !bytes.Equal(it2.List.EncodeBytes(), it.List.EncodeBytes()) {
				t.Fatalf("item %d re-decodes differently", i)
			}
		}
	})
}

func TestChunkGroupsSplitsOversized(t *testing.T) {
	items := make([]int, 25)
	for i := range items {
		items[i] = i
	}
	in := []group{
		{peer: dht.Remote{Addr: "a"}, items: items},
		{peer: dht.Remote{Addr: "b"}, items: []int{100}},
	}
	out := chunkGroups(in, 10)
	if len(out) != 4 {
		t.Fatalf("chunks = %d, want 4", len(out))
	}
	var flat []int
	for _, g := range out[:3] {
		if g.peer.Addr != "a" {
			t.Fatalf("chunk addr %q", g.peer.Addr)
		}
		if len(g.items) > 10 {
			t.Fatalf("chunk size %d over max", len(g.items))
		}
		flat = append(flat, g.items...)
	}
	for i, v := range flat {
		if v != i {
			t.Fatalf("item order broken at %d: %d", i, v)
		}
	}
	if out[3].peer.Addr != "b" || len(out[3].items) != 1 {
		t.Fatalf("small group mangled: %+v", out[3])
	}
}

func TestMultiEmptyBatchesAreFree(t *testing.T) {
	_, idxs, net := ring(t, 4)
	before := net.Meter().Snapshot().Messages
	if ns, err := idxs[0].MultiAppend(context.Background(), nil); err != nil || len(ns) != 0 {
		t.Fatalf("empty MultiAppend: %v %v", ns, err)
	}
	if rs, err := idxs[0].MultiGet(context.Background(), nil, ReadPrimary); err != nil || len(rs) != 0 {
		t.Fatalf("empty MultiGet: %v %v", rs, err)
	}
	if rs, err := idxs[0].MultiKeyInfo(context.Background(), nil); err != nil || len(rs) != 0 {
		t.Fatalf("empty MultiKeyInfo: %v %v", rs, err)
	}
	if used := net.Meter().Snapshot().Messages - before; used != 0 {
		t.Fatalf("empty batches used %d messages", used)
	}
}

func TestMultiRedriveAfterPeerDeath(t *testing.T) {
	nodes, idxs, net := ring(t, 8)
	items := multiItems(30, 3)
	// Warm the resolver cache over every key, kill one remote peer, and
	// let the ring repair. The cached routes naming the dead peer are now
	// stale: the batch frames to it fail and the redrive's fresh ring
	// walks must re-resolve to the peer that took over the dead node's
	// range.
	var gets []GetItem
	for _, it := range items {
		gets = append(gets, GetItem{Terms: it.Terms})
	}
	if _, err := idxs[0].MultiGet(context.Background(), gets, ReadPrimary); err != nil {
		t.Fatal(err)
	}
	victim := nodes[5].Self()
	net.SetDown(victim.Addr, true)
	for round := 0; round < 6; round++ {
		for i, n := range nodes {
			if i == 5 {
				continue
			}
			_ = n.Stabilize(context.Background())
			_ = n.FixFingers(context.Background())
		}
	}

	if _, err := idxs[0].MultiAppend(context.Background(), items); err != nil {
		t.Fatalf("batch append across peer death: %v", err)
	}
	for _, it := range items {
		list, found, _, err := getOne(context.Background(), idxs[2], it.Terms, 0, ReadPrimary)
		if err != nil || !found || list.Len() == 0 {
			t.Fatalf("key %v lost after redrive: found=%v err=%v", it.Terms, found, err)
		}
	}
}
