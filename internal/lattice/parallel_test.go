package lattice

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ids"
	"repro/internal/postings"
)

// randomFetcher stubs a global index over a random subset of indexed
// combinations, some truncated. It is safe for concurrent use and counts
// probes.
type randomFetcher struct {
	lists  map[string]*postings.List
	probes atomic.Int64
}

func newRandomFetcher(terms []string, seed int64) *randomFetcher {
	rng := rand.New(rand.NewSource(seed))
	f := &randomFetcher{lists: make(map[string]*postings.List)}
	n := len(terms)
	for m := uint(1); m < 1<<n; m++ {
		if rng.Float64() < 0.45 {
			continue // not indexed
		}
		var combo []string
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				combo = append(combo, terms[i])
			}
		}
		l := &postings.List{}
		for e := 0; e < 3+rng.Intn(12); e++ {
			l.Add(postings.Posting{
				Ref:   postings.DocRef{Peer: "p", Doc: uint32(rng.Intn(500))},
				Score: rng.Float64() * 10,
			})
		}
		l.Normalize()
		l.Truncated = rng.Float64() < 0.4
		f.lists[ids.KeyString(combo)] = l
	}
	return f
}

func (f *randomFetcher) Get(_ context.Context, terms []string, _ int) (*postings.List, bool, error) {
	f.probes.Add(1)
	l, ok := f.lists[ids.KeyString(terms)]
	if !ok {
		return nil, false, nil
	}
	return l.Clone(), true, nil
}

// parallelFetcher answers a whole generation per call, the way the
// global index does: one goroutine per combination, all in flight at
// once. It counts batch calls and records the goroutines that probed.
type parallelFetcher struct {
	*randomFetcher
	batchCalls int
	mu         sync.Mutex
	ran        map[string]bool
}

func (f *parallelFetcher) GetBatch(ctx context.Context, combos [][]string, maxResults int) ([]BatchResult, error) {
	f.batchCalls++
	out := make([]BatchResult, len(combos))
	errs := make([]error, len(combos))
	var wg sync.WaitGroup
	for i, c := range combos {
		wg.Add(1)
		go func(i int, c []string) {
			defer wg.Done()
			f.mu.Lock()
			f.ran[goid()] = true
			f.mu.Unlock()
			l, found, err := f.Get(ctx, c, maxResults)
			out[i], errs[i] = BatchResult{List: l, Found: found}, err
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func newParallelFetcher(terms []string, seed int64) *parallelFetcher {
	return &parallelFetcher{randomFetcher: newRandomFetcher(terms, seed), ran: make(map[string]bool)}
}

// tracesEqual compares two traces entry by entry.
func tracesEqual(t *testing.T, name string, seq, par *Trace) {
	t.Helper()
	if !reflect.DeepEqual(seq.Probed, par.Probed) {
		t.Fatalf("%s: probed sequences differ:\nseq: %v\npar: %v", name, seq.Probed, par.Probed)
	}
	if !reflect.DeepEqual(seq.Skipped, par.Skipped) {
		t.Fatalf("%s: skip sequences differ:\nseq: %v\npar: %v", name, seq.Skipped, par.Skipped)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// exploreInline runs an exploration through a FetchFunc over base and
// returns the union, the trace and the goroutines the probes ran on.
func exploreInline(t *testing.T, base *randomFetcher, terms []string, cfg Config) (*postings.List, *Trace, map[string]bool) {
	t.Helper()
	ran := make(map[string]bool)
	f := FetchFunc(func(ctx context.Context, ts []string, max int) (*postings.List, bool, error) {
		ran[goid()] = true
		return base.Get(ctx, ts, max)
	})
	lists, tr, err := Explore(context.Background(), f, terms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return postings.Union(lists...), tr, ran
}

// TestExploreParallelMatchesSequential fuzzes random index contents and
// asserts the exploration is identical through a FetchFunc (one inline
// probe per combination, in order) and through a fetcher that probes
// each generation's combinations concurrently — union, probe sequence
// and skip sequence — with and without the truncated-hit pruning
// approximation.
func TestExploreParallelMatchesSequential(t *testing.T) {
	terms := []string{"a", "b", "c", "d", "e"}
	for seed := int64(0); seed < 30; seed++ {
		for _, prune := range []bool{false, true} {
			cfg := Config{PruneTruncated: prune}
			name := fmt.Sprintf("seed=%d prune=%v", seed, prune)

			base := newRandomFetcher(terms, seed)
			seqList, seqTrace, _ := exploreInline(t, base, terms, cfg)

			par := newParallelFetcher(terms, seed)
			parLists, parTrace, err := Explore(context.Background(), par, terms, cfg)
			if err != nil {
				t.Fatal(err)
			}
			parList := postings.Union(parLists...)
			tracesEqual(t, name, seqTrace, parTrace)
			if !reflect.DeepEqual(seqList, parList) {
				t.Fatalf("%s: unions differ", name)
			}
			// One batch call per explored generation, at most n of them.
			if par.batchCalls < 1 || par.batchCalls > len(terms) {
				t.Fatalf("%s: %d batch calls for %d generations", name, par.batchCalls, len(terms))
			}
			// Exactly as many probes as the sequential exploration issued.
			if par.probes.Load() != base.probes.Load() {
				t.Fatalf("%s: parallel issued %d probes, sequential %d", name, par.probes.Load(), base.probes.Load())
			}
		}
	}
}

// TestExploreWidthZeroOrOneIsInline pins the inline probing that widths
// 0 and 1 used to select and that a FetchFunc now always gets: every
// probe runs on the caller's goroutine — no pool, nothing spawned —
// with and without pruning. A concurrent batch fetcher is the control:
// its probes leave the caller's goroutine and give the same union and
// trace.
func TestExploreWidthZeroOrOneIsInline(t *testing.T) {
	terms := []string{"x", "y", "z"}
	self := goid()
	for _, cfg := range []Config{{}, {PruneTruncated: true}} {
		name := fmt.Sprintf("prune=%v", cfg.PruneTruncated)
		l, tr, ran := exploreInline(t, newRandomFetcher(terms, 99), terms, cfg)
		if len(ran) != 1 || !ran[self] {
			t.Errorf("%s: FetchFunc probed on goroutines %v, want only the caller's (%s)", name, ran, self)
		}
		par := newParallelFetcher(terms, 99)
		lists, tp, err := Explore(context.Background(), par, terms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lp := postings.Union(lists...)
		if len(par.ran) == 0 || par.ran[self] {
			t.Errorf("%s: parallel fetcher probed on goroutines %v, want none of them the caller's (%s)", name, par.ran, self)
		}
		tracesEqual(t, name, tr, tp)
		if !reflect.DeepEqual(l, lp) {
			t.Fatalf("%s: unions differ", name)
		}
	}
}
