package lattice

import (
	"context"

	"math/rand"
	"testing"

	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

// randomIndex builds a random index state over the given terms: each
// non-empty subset is indexed with probability pIndex, truncated with
// probability pTrunc, holding a random small posting list.
func randomIndex(rng *rand.Rand, terms []string, pIndex, pTrunc float64) map[string]*postings.List {
	idx := map[string]*postings.List{}
	n := len(terms)
	for m := 1; m < 1<<n; m++ {
		if rng.Float64() > pIndex {
			continue
		}
		var combo []string
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				combo = append(combo, terms[i])
			}
		}
		l := &postings.List{}
		for j := 0; j < 1+rng.Intn(5); j++ {
			l.Add(postings.Posting{
				Ref:   postings.DocRef{Peer: transport.Addr("p"), Doc: uint32(rng.Intn(30))},
				Score: rng.Float64() * 10,
			})
		}
		l.Normalize()
		l.Truncated = rng.Float64() < pTrunc
		idx[ids.KeyString(combo)] = l
	}
	return idx
}

// TestPruningIsConservative checks, over many random index states, that
// the pruned exploration (a) issues a subset of the full exploration's
// probes and (b) returns a subset of its result documents — the
// approximation loses recall but never invents results.
func TestPruningIsConservative(t *testing.T) {
	terms := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		idx := randomIndex(rng, terms, 0.5, 0.5)
		mf := func() *mapFetcher { return &mapFetcher{lists: idx} }

		fOn := mf()
		listsOn, _, err := Explore(context.Background(), fOn, terms, Config{PruneTruncated: true})
		if err != nil {
			t.Fatal(err)
		}
		unionOn := postings.Union(listsOn...)
		fOff := mf()
		listsOff, _, err := Explore(context.Background(), fOff, terms, Config{PruneTruncated: false})
		if err != nil {
			t.Fatal(err)
		}
		unionOff := postings.Union(listsOff...)

		probesOff := map[string]bool{}
		for _, p := range fOff.probes {
			probesOff[p] = true
		}
		for _, p := range fOn.probes {
			if !probesOff[p] {
				t.Fatalf("trial %d: pruned run probed %q which the full run skipped", trial, p)
			}
		}

		offDocs := map[postings.DocRef]bool{}
		for _, e := range unionOff.Entries {
			offDocs[e.Ref] = true
		}
		for _, e := range unionOn.Entries {
			if !offDocs[e.Ref] {
				t.Fatalf("trial %d: pruned union contains %v absent from the full union", trial, e.Ref)
			}
		}
	}
}

// TestDominatedByUntruncatedNeverProbed verifies the core pruning rule:
// once a combination with an untruncated list is hit, none of its strict
// sub-combinations is probed afterwards, in either mode.
func TestDominatedByUntruncatedNeverProbed(t *testing.T) {
	terms := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		idx := randomIndex(rng, terms, 0.4, 0.3)
		for _, prune := range []bool{true, false} {
			f := &mapFetcher{lists: idx}
			_, trace, err := Explore(context.Background(), f, terms, Config{PruneTruncated: prune})
			if err != nil {
				t.Fatal(err)
			}
			var coveringSets []map[string]bool
			for _, p := range trace.Probed {
				set := map[string]bool{}
				for _, term := range p.Terms {
					set[term] = true
				}
				for _, cover := range coveringSets {
					sub := true
					for term := range set {
						if !cover[term] {
							sub = false
							break
						}
					}
					if sub && len(set) < len(cover) {
						t.Fatalf("trial %d (prune=%v): probed %v although a covering untruncated hit preceded it",
							trial, prune, p.Terms)
					}
				}
				if p.Found && (!p.Truncated || prune) {
					coveringSets = append(coveringSets, set)
				}
			}
		}
	}
}

// TestUnionMatchesProbedHits verifies the result is exactly the union of
// the lists returned by the probed hits.
func TestUnionMatchesProbedHits(t *testing.T) {
	terms := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		idx := randomIndex(rng, terms, 0.6, 0.5)
		f := &mapFetcher{lists: idx}
		lists, trace, err := Explore(context.Background(), f, terms, Config{PruneTruncated: true})
		if err != nil {
			t.Fatal(err)
		}
		union := postings.Union(lists...)
		want := map[postings.DocRef]bool{}
		for _, p := range trace.Probed {
			if !p.Found {
				continue
			}
			for _, e := range idx[ids.KeyString(p.Terms)].Entries {
				want[e.Ref] = true
			}
		}
		if len(want) != union.Len() {
			t.Fatalf("trial %d: union has %d docs, probed hits hold %d", trial, union.Len(), len(want))
		}
		for _, e := range union.Entries {
			if !want[e.Ref] {
				t.Fatalf("trial %d: unexpected doc %v", trial, e.Ref)
			}
		}
	}
}
