package core

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/postings"
	"repro/internal/transport"
)

// rankUnionMaps is rankUnion as it was before term masks: a covered-term
// map per document. It is the oracle of TestRankUnionMatchesMaps.
func rankUnionMaps(perKey map[string]*postings.List) []postings.Posting {
	type keyList struct {
		terms []string
		list  *postings.List
	}
	kls := make([]keyList, 0, len(perKey))
	for k, l := range perKey {
		kls = append(kls, keyList{terms: strings.Fields(k), list: l})
	}
	sort.Slice(kls, func(i, j int) bool {
		if len(kls[i].terms) != len(kls[j].terms) {
			return len(kls[i].terms) > len(kls[j].terms)
		}
		return strings.Join(kls[i].terms, " ") < strings.Join(kls[j].terms, " ")
	})
	type docState struct {
		score   float64
		covered map[string]bool
	}
	states := make(map[postings.DocRef]*docState)
	for _, kl := range kls {
		for _, pst := range kl.list.Entries {
			st := states[pst.Ref]
			if st == nil {
				st = &docState{covered: make(map[string]bool)}
				states[pst.Ref] = st
			}
			disjoint := true
			for _, t := range kl.terms {
				if st.covered[t] {
					disjoint = false
					break
				}
			}
			if !disjoint {
				continue
			}
			st.score += pst.Score
			for _, t := range kl.terms {
				st.covered[t] = true
			}
		}
	}
	out := make([]postings.Posting, 0, len(states))
	for ref, st := range states {
		out = append(out, postings.Posting{Ref: ref, Score: st.score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Ref.Less(out[j].Ref)
	})
	return out
}

// randomPerKey builds up to maxKeys keys of 1–4 distinct terms drawn from
// vocab terms, each with a list over a shared pool of documents. Scores
// come mostly from a few values, so equal sums and the ref tie-break are
// common.
func randomPerKey(rng *rand.Rand, vocab, maxKeys int) map[string]*postings.List {
	perKey := make(map[string]*postings.List)
	for n := 1 + rng.Intn(maxKeys); len(perKey) < n; {
		terms := rng.Perm(vocab)[:1+rng.Intn(4)]
		words := make([]string, len(terms))
		for i, t := range terms {
			words[i] = "t" + strconv.Itoa(t)
		}
		l := &postings.List{}
		for j := rng.Intn(40); j > 0; j-- {
			score := float64(1+rng.Intn(4)) / 4
			if rng.Intn(3) == 0 {
				score = rng.Float64()
			}
			ref := postings.DocRef{Peer: transport.Addr("p" + strconv.Itoa(rng.Intn(3))), Doc: uint32(rng.Intn(30))}
			l.Entries = append(l.Entries, postings.Posting{Ref: ref, Score: score})
		}
		perKey[strings.Join(words, " ")] = l
	}
	return perKey
}

// TestRankUnionMatchesMaps compares rankUnion with the per-document-map
// version over random per-key lists: the same documents in the same
// order with bit-identical scores, because the keys are walked and the
// scores summed in the same order. Every fifth case draws from a large
// vocabulary, so the term masks span more than one word.
func TestRankUnionMatchesMaps(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab, maxKeys := 6, 12
		if seed%5 == 0 {
			vocab, maxKeys = 300, 60
		}
		perKey := randomPerKey(rng, vocab, maxKeys)
		got, want := rankUnion(perKey), rankUnionMaps(perKey)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d documents, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].Ref != want[i].Ref || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("seed %d rank %d: %v %v, want %v %v", seed, i, got[i].Ref, got[i].Score, want[i].Ref, want[i].Score)
			}
		}
	}
}

// TestRankUnionAllocsIndependentOfDocs pins that ranking allocates per
// key and per call, never per candidate document: every subset of a
// three-term query, each listing the same 500 documents. The byte bound
// pins the pointer-free per-document slots: keyed by DocRef, with the
// ranking copied out of a second slice, the same call took ≈ 308 kB.
func TestRankUnionAllocsIndependentOfDocs(t *testing.T) {
	perKey := threeTermPerKey(500)
	allocs := testing.AllocsPerRun(20, func() { rankUnion(perKey) })
	if allocs > 26 {
		t.Fatalf("rankUnion made %v allocations for 500 documents, want at most 26", allocs)
	}
	res := testing.Benchmark(BenchmarkRankUnion)
	if b := res.AllocedBytesPerOp(); b > 240_000 {
		t.Fatalf("rankUnion allocated %d B per call for 500 documents, want at most 240000", b)
	}
}

func threeTermPerKey(docs int) map[string]*postings.List {
	perKey := make(map[string]*postings.List)
	for _, key := range []string{"a", "b", "c", "a b", "a c", "b c", "a b c"} {
		l := &postings.List{}
		for d := 0; d < docs; d++ {
			l.Entries = append(l.Entries, postings.Posting{Ref: postings.DocRef{Peer: "p", Doc: uint32(d)}, Score: float64(d%7) / 7})
		}
		perKey[key] = l
	}
	return perKey
}

func BenchmarkRankUnion(b *testing.B) {
	perKey := threeTermPerKey(500)
	b.ReportAllocs()
	for b.Loop() {
		rankUnion(perKey)
	}
}
