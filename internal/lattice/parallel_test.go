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
	mu     sync.Mutex
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
	f.mu.Lock()
	l, ok := f.lists[ids.KeyString(terms)]
	f.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	return l.Clone(), true, nil
}

// batchingFetcher wraps randomFetcher with a GetBatch implementation and
// counts batch calls.
type batchingFetcher struct {
	*randomFetcher
	batchCalls atomic.Int64
}

func (f *batchingFetcher) GetBatch(ctx context.Context, combos [][]string, maxResults int) ([]BatchResult, error) {
	f.batchCalls.Add(1)
	out := make([]BatchResult, len(combos))
	for i, c := range combos {
		l, found, err := f.Get(ctx, c, maxResults)
		if err != nil {
			return nil, err
		}
		out[i] = BatchResult{List: l, Found: found}
	}
	return out, nil
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

// TestExploreParallelMatchesSequential fuzzes random index contents and
// asserts the exploration is byte-identical at width one (inline probes),
// at width eight (a goroutine pool) and through a batch fetcher — union,
// probe sequence and skip sequence — with and without the truncated-hit
// pruning approximation.
func TestExploreParallelMatchesSequential(t *testing.T) {
	terms := []string{"a", "b", "c", "d", "e"}
	for seed := int64(0); seed < 30; seed++ {
		for _, prune := range []bool{false, true} {
			seqCfg := Config{PruneTruncated: prune, Concurrency: 1}
			base := newRandomFetcher(terms, seed)
			seqList, seqTrace, err := Explore(context.Background(), base, terms, seqCfg)
			if err != nil {
				t.Fatal(err)
			}

			parCfg := Config{PruneTruncated: prune, Concurrency: 8}
			plain := newRandomFetcher(terms, seed)
			parList, parTrace, err := Explore(context.Background(), plain, terms, parCfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed=%d prune=%v pool", seed, prune)
			tracesEqual(t, name, seqTrace, parTrace)
			if !reflect.DeepEqual(seqList, parList) {
				t.Fatalf("%s: unions differ", name)
			}

			batch := &batchingFetcher{randomFetcher: newRandomFetcher(terms, seed)}
			batList, batTrace, err := Explore(context.Background(), batch, terms, parCfg)
			if err != nil {
				t.Fatal(err)
			}
			name = fmt.Sprintf("seed=%d prune=%v batch", seed, prune)
			tracesEqual(t, name, seqTrace, batTrace)
			if !reflect.DeepEqual(seqList, batList) {
				t.Fatalf("%s: unions differ", name)
			}
			// One batch call per explored generation, at most n of them.
			if calls := batch.batchCalls.Load(); calls < 1 || calls > int64(len(terms)) {
				t.Fatalf("%s: %d batch calls for %d generations", name, calls, len(terms))
			}
			// Exactly as many probes as the sequential exploration issued.
			if batch.probes.Load() != base.probes.Load() {
				t.Fatalf("%s: parallel issued %d probes, sequential %d", name, batch.probes.Load(), base.probes.Load())
			}
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestExploreWidthZeroOrOneIsInline pins what width <= 1 means for a plain
// Fetcher: every probe runs on the caller's goroutine — no pool, nothing
// spawned — and widths 0 and 1 yield the same union and trace. Width 8
// is the control: its probes leave the caller's goroutine.
func TestExploreWidthZeroOrOneIsInline(t *testing.T) {
	terms := []string{"x", "y", "z"}
	explore := func(width int) (*postings.List, *Trace, map[string]bool) {
		base := newRandomFetcher(terms, 99)
		var mu sync.Mutex
		ran := make(map[string]bool)
		f := FetchFunc(func(ctx context.Context, ts []string, max int) (*postings.List, bool, error) {
			mu.Lock()
			ran[goid()] = true
			mu.Unlock()
			return base.Get(ctx, ts, max)
		})
		l, tr, err := Explore(context.Background(), f, terms, Config{Concurrency: width})
		if err != nil {
			t.Fatal(err)
		}
		return l, tr, ran
	}
	self := goid()
	l0, t0, ran0 := explore(0)
	l1, t1, ran1 := explore(1)
	for width, ran := range []map[string]bool{ran0, ran1} {
		if len(ran) != 1 || !ran[self] {
			t.Errorf("width %d probed on goroutines %v, want only the caller's (%s)", width, ran, self)
		}
	}
	tracesEqual(t, "zero-vs-one", t0, t1)
	if !reflect.DeepEqual(l0, l1) {
		t.Fatal("unions differ")
	}
	l8, t8, ran8 := explore(8)
	if ran8[self] {
		t.Errorf("width 8 probed on the caller's goroutine: %v", ran8)
	}
	tracesEqual(t, "one-vs-eight", t1, t8)
	if !reflect.DeepEqual(l1, l8) {
		t.Fatal("unions differ")
	}
}
