package globalindex

// Race and stress tests: hammer one Store and the batch client from many
// goroutines. They assert only invariants that hold under any
// interleaving; their real value is running cleanly under `go test -race`
// (the CI workflow does). The heaviest cases shrink under -short.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadstat"
	"repro/internal/postings"
)

func stressScale(short int, full int, t *testing.T) int {
	if testing.Short() {
		return short
	}
	_ = t
	return full
}

// TestStoreConcurrentMixedOps drives every Store entry point from
// concurrent goroutines.
func TestStoreConcurrentMixedOps(t *testing.T) {
	s := NewStore()
	workers := 8
	rounds := stressScale(50, 400, t)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := keys[(w+r)%len(keys)]
				switch r % 6 {
				case 0:
					l := &postings.List{Entries: []postings.Posting{post(fmt.Sprintf("p%d", w), uint32(r), float64(r%17))}}
					s.Put(k, l, 8)
				case 1:
					l := &postings.List{Entries: []postings.Posting{post(fmt.Sprintf("p%d", w), uint32(r), float64(r%13))}}
					write(s, k, l, 8, 3)
				case 2:
					if l, found, _ := s.Get(k, 4); found && l.Len() > 4 {
						t.Errorf("capped get returned %d entries", l.Len())
					}
				case 3:
					s.Peek(k)
					s.ApproxDF(k)
					s.GetPrefix(k, r%3, 2)
				case 4:
					s.Stats()
					s.Keys()
				case 5:
					if r%20 == 5 {
						s.Remove(k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Post-conditions: every surviving list respects the bound.
	for _, k := range s.Keys() {
		l, _ := s.Peek(k)
		if l.Len() > 8 {
			t.Fatalf("key %q holds %d entries, bound 8", k, l.Len())
		}
	}
}

// TestStoreConcurrentActivationPolicy exercises the probe hook the way
// QDI installs it — a decayed tracker read and written from every read
// handler, outside the store lock — while reads, writes and the
// tracker's clock ticks race.
func TestStoreConcurrentActivationPolicy(t *testing.T) {
	ix := selfIndex(t)
	var ticks atomic.Int64
	rate := loadstat.NewKeyRate(time.Second, 16, func() time.Time { return time.Unix(ticks.Load(), 0) })
	ix.SetProbeHook(func(key string, found bool) bool {
		return rate.Observe(key) > 1 && !found
	})
	rounds := stressScale(100, 1000, t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("missing multi term %d", (w+i)%24)
				body := readRequest(uint8(i%2), readItem{key, 0, 0}, readItem{"stored", uint64(i % 3), 2})
				if _, _, err := ix.handleRead(context.Background(), "tester", MsgRead, body); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			write(ix.Store(), "stored", &postings.List{Entries: []postings.Posting{post("p", uint32(i), 1)}}, 8, 1)
			if i%10 == 0 {
				ticks.Add(1)
				rate.Hot(1)
			}
		}
	}()
	wg.Wait()
	if n := rate.Len(); n == 0 || n > 16 {
		t.Fatalf("tracker holds %d keys, want 1..16", n)
	}
}

// TestBatchClientConcurrentPublishers runs many peers batch-publishing
// and batch-searching into one ring at once, then checks the union of
// stored postings is exactly what was published.
func TestBatchClientConcurrentPublishers(t *testing.T) {
	nPeers := 10
	nKeys := stressScale(20, 60, t)
	_, idxs, _ := ring(t, nPeers)

	var wg sync.WaitGroup
	for p := 0; p < nPeers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			items := make([]AppendItem, nKeys)
			for i := range items {
				l := &postings.List{}
				l.Add(post(fmt.Sprintf("peer%d", p), uint32(i), float64(p+1)))
				items[i] = AppendItem{Terms: []string{fmt.Sprintf("shared%03d", i)}, List: l, Bound: 0, AnnouncedDF: 1}
			}
			if _, err := idxs[p].MultiAppend(context.Background(), items); err != nil {
				t.Errorf("peer %d: %v", p, err)
			}
			gets := make([]GetItem, nKeys)
			for i := range gets {
				gets[i] = GetItem{Terms: []string{fmt.Sprintf("shared%03d", i)}}
			}
			if _, err := idxs[p].MultiGet(context.Background(), gets, ReadPrimary); err != nil {
				t.Errorf("peer %d get: %v", p, err)
			}
		}(p)
	}
	wg.Wait()

	// Every key must now hold one posting per publisher, whatever the
	// interleaving was.
	for i := 0; i < nKeys; i++ {
		terms := []string{fmt.Sprintf("shared%03d", i)}
		l, found, _, err := getOne(context.Background(), idxs[0], terms, 0, ReadPrimary)
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", i, found, err)
		}
		if l.Len() != nPeers {
			t.Fatalf("key %d holds %d postings, want %d", i, l.Len(), nPeers)
		}
	}
}

// TestBatchClientSharedIndexConcurrentCallers drives one peer's Multi
// operations from several goroutines sharing the same resolver cache.
func TestBatchClientSharedIndexConcurrentCallers(t *testing.T) {
	_, idxs, _ := ring(t, 8)
	ix := idxs[0]
	callers := 8
	rounds := stressScale(3, 10, t)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				items := make([]AppendItem, 15)
				for i := range items {
					l := &postings.List{}
					l.Add(post("p", uint32(i), 1))
					items[i] = AppendItem{Terms: []string{fmt.Sprintf("c%dr%di%d", c, r, i)}, List: l, Bound: 4}
				}
				if _, err := ix.MultiAppend(context.Background(), items); err != nil {
					t.Errorf("caller %d: %v", c, err)
					return
				}
				gets := make([]GetItem, len(items))
				for i, it := range items {
					gets[i] = GetItem{Terms: it.Terms}
				}
				res, err := ix.MultiGet(context.Background(), gets, ReadPrimary)
				if err != nil {
					t.Errorf("caller %d get: %v", c, err)
					return
				}
				for i, gr := range res {
					if !gr.Found || gr.List.Len() != 1 {
						t.Errorf("caller %d item %d: %+v", c, i, gr)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
