package lattice

import (
	"context"

	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

// mapFetcher serves posting lists from a map keyed by canonical key
// string and counts probes.
type mapFetcher struct {
	lists  map[string]*postings.List
	probes []string
}

func (m *mapFetcher) Get(_ context.Context, terms []string, maxResults int) (*postings.List, bool, error) {
	key := ids.KeyString(terms)
	m.probes = append(m.probes, key)
	l, ok := m.lists[key]
	if !ok {
		return nil, false, nil
	}
	out := l.Clone()
	if maxResults > 0 && out.Len() > maxResults {
		out.Entries = out.Entries[:maxResults]
		out.Truncated = true
	}
	return out, true, nil
}

func (m *mapFetcher) GetBatch(ctx context.Context, combos [][]string, maxResults int) ([]BatchResult, error) {
	return FetchFunc(m.Get).GetBatch(ctx, combos, maxResults)
}

func pl(truncated bool, docs ...uint32) *postings.List {
	l := &postings.List{Truncated: truncated}
	for i, d := range docs {
		l.Add(postings.Posting{
			Ref:   postings.DocRef{Peer: transport.Addr("h"), Doc: d},
			Score: float64(100 - i),
		})
	}
	l.Normalize()
	l.Truncated = truncated
	return l
}

// TestFigure1 reproduces the paper's worked example exactly: query
// {a,b,c}; bc is indexed with a truncated list; ab and ac are not
// indexed; single terms are indexed (a untruncated). With the truncated-
// hit pruning approximation on, the exploration probes abc, ab, ac, bc,
// then a, skips b and c, and the result is union(bc, a).
func TestFigure1(t *testing.T) {
	f := &mapFetcher{lists: map[string]*postings.List{
		"b c": pl(true, 10, 11),
		"a":   pl(false, 1, 10),
		"b":   pl(true, 10, 11, 12),
		"c":   pl(true, 10, 13),
	}}
	lists, trace, err := Explore(context.Background(), f, []string{"a", "b", "c"}, Config{PruneTruncated: true})
	if err != nil {
		t.Fatal(err)
	}
	result := postings.Union(lists...)
	wantProbes := []string{"a b c", "a b", "a c", "b c", "a"}
	if !reflect.DeepEqual(f.probes, wantProbes) {
		t.Fatalf("probes = %v, want %v", f.probes, wantProbes)
	}
	var skipped []string
	for _, s := range trace.Skipped {
		skipped = append(skipped, ids.KeyString(s))
	}
	if !reflect.DeepEqual(skipped, []string{"b", "c"}) {
		t.Fatalf("skipped = %v, want [b c]", skipped)
	}
	// Result = union(trunc(bc), a) = docs {1, 10, 11}.
	var got []uint32
	for _, p := range result.Entries {
		got = append(got, p.Ref.Doc)
	}
	want := map[uint32]bool{1: true, 10: true, 11: true}
	if len(got) != len(want) {
		t.Fatalf("result docs = %v", got)
	}
	for _, d := range got {
		if !want[d] {
			t.Fatalf("unexpected doc %d in result", d)
		}
	}
	if !result.Truncated {
		t.Fatal("union containing a truncated list must be truncated")
	}
	// The trace renders Figure 1's states.
	s := trace.String()
	if !strings.Contains(s, "probed  {b,c}: hit (truncated)") || !strings.Contains(s, "skipped {b}") {
		t.Fatalf("trace rendering:\n%s", s)
	}
}

func TestFigure1WithoutApproximation(t *testing.T) {
	// With PruneTruncated off, the truncated bc hit does NOT prune b and
	// c; only untruncated hits prune.
	f := &mapFetcher{lists: map[string]*postings.List{
		"b c": pl(true, 10, 11),
		"a":   pl(false, 1, 10),
		"b":   pl(true, 10, 11, 12),
		"c":   pl(true, 10, 13),
	}}
	_, _, err := Explore(context.Background(), f, []string{"a", "b", "c"}, Config{PruneTruncated: false})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a b c", "a b", "a c", "b c", "a", "b", "c"}
	if !reflect.DeepEqual(f.probes, want) {
		t.Fatalf("probes = %v, want %v", f.probes, want)
	}
}

func TestUntruncatedHitPrunesDominated(t *testing.T) {
	// The full query is indexed untruncated: one probe answers everything.
	f := &mapFetcher{lists: map[string]*postings.List{
		"a b c": pl(false, 1, 2),
	}}
	lists, trace, err := Explore(context.Background(), f, []string{"c", "b", "a"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	result := postings.Union(lists...)
	if len(f.probes) != 1 || f.probes[0] != "a b c" {
		t.Fatalf("probes = %v", f.probes)
	}
	if len(trace.Skipped) != 6 {
		t.Fatalf("skipped %d, want 6", len(trace.Skipped))
	}
	if result.Len() != 2 || result.Truncated {
		t.Fatalf("result = %+v", result)
	}
}

func TestSingleTermQuery(t *testing.T) {
	f := &mapFetcher{lists: map[string]*postings.List{"x": pl(false, 5)}}
	lists, trace, err := Explore(context.Background(), f, []string{"x"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	result := postings.Union(lists...)
	if trace.Probes() != 1 || result.Len() != 1 {
		t.Fatalf("probes=%d result=%d", trace.Probes(), result.Len())
	}
}

func TestEmptyQuery(t *testing.T) {
	f := &mapFetcher{}
	lists, trace, err := Explore(context.Background(), f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	result := postings.Union(lists...)
	if result.Len() != 0 || trace.Probes() != 0 {
		t.Fatal("empty query must produce nothing")
	}
}

func TestDuplicateTermsCollapse(t *testing.T) {
	f := &mapFetcher{lists: map[string]*postings.List{"x": pl(false, 5)}}
	_, trace, err := Explore(context.Background(), f, []string{"x", "x", "x"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Probes() != 1 {
		t.Fatalf("probes = %d, want 1", trace.Probes())
	}
}

func TestAllMissesProbesEverything(t *testing.T) {
	f := &mapFetcher{lists: map[string]*postings.List{}}
	lists, trace, err := Explore(context.Background(), f, []string{"a", "b", "c", "d"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	result := postings.Union(lists...)
	if trace.Probes() != 15 { // 2^4 - 1
		t.Fatalf("probes = %d, want 15", trace.Probes())
	}
	if result.Len() != 0 {
		t.Fatal("no hits must produce empty result")
	}
}

// TestMaxQueryTermsBounds drives a query one term over the bound: the
// last term is dropped, so all-miss exploration probes 2^6 - 1
// combinations and never one holding "g".
func TestMaxQueryTermsBounds(t *testing.T) {
	f := &mapFetcher{lists: map[string]*postings.List{}}
	terms := []string{"a", "b", "c", "d", "e", "f", "g"}
	_, trace, err := Explore(context.Background(), f, terms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1<<maxQueryTerms - 1; trace.Probes() != want {
		t.Fatalf("probes = %d, want %d", trace.Probes(), want)
	}
	for _, p := range f.probes {
		if strings.Contains(p, "g") {
			t.Fatalf("probed %q beyond the first %d terms", p, maxQueryTerms)
		}
	}
}

func TestMaxResultsPerProbePropagates(t *testing.T) {
	f := &mapFetcher{lists: map[string]*postings.List{
		"a": pl(false, 1, 2, 3, 4, 5),
	}}
	lists, _, err := Explore(context.Background(), f, []string{"a"}, Config{MaxResultsPerProbe: 2})
	if err != nil {
		t.Fatal(err)
	}
	result := postings.Union(lists...)
	if result.Len() != 2 || !result.Truncated {
		t.Fatalf("capped probe: len=%d trunc=%v", result.Len(), result.Truncated)
	}
}

func TestFetchErrorAborts(t *testing.T) {
	boom := errors.New("network down")
	f := FetchFunc(func(_ context.Context, terms []string, _ int) (*postings.List, bool, error) {
		return nil, false, boom
	})
	_, _, err := Explore(context.Background(), f, []string{"a", "b"}, Config{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecreasingSizeOrder(t *testing.T) {
	f := &mapFetcher{lists: map[string]*postings.List{}}
	_, _, err := Explore(context.Background(), f, []string{"d", "b", "a", "c"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(f.probes))
	for i, p := range f.probes {
		sizes[i] = len(strings.Fields(p))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("probe sizes not decreasing: %v", sizes)
		}
	}
	// Within size 3, combinations are lexicographic.
	if f.probes[1] != "a b c" || f.probes[2] != "a b d" || f.probes[3] != "a c d" || f.probes[4] != "b c d" {
		t.Fatalf("size-3 order: %v", f.probes[1:5])
	}
}

// TestExploreAllocsIndependentOfPostings pins that exploration merges
// nothing: over the same found lists, ten postings each or two thousand,
// it allocates the same bytes. A union of the lists would copy and sort
// every posting, ≈ 190 kB more for the larger lists.
func TestExploreAllocsIndependentOfPostings(t *testing.T) {
	bytesPerRun := func(perList int) int64 {
		lists := map[string]*postings.List{}
		for _, term := range []string{"a", "b", "c"} {
			l := &postings.List{Truncated: true}
			for d := 0; d < perList; d++ {
				l.Entries = append(l.Entries, postings.Posting{
					Ref: postings.DocRef{Peer: transport.Addr(term), Doc: uint32(d)}, Score: float64(perList - d)})
			}
			lists[term] = l
		}
		f := FetchFunc(func(_ context.Context, terms []string, _ int) (*postings.List, bool, error) {
			l, ok := lists[ids.KeyString(terms)]
			return l, ok, nil
		})
		terms := []string{"a", "b", "c"}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := Explore(context.Background(), f, terms, Config{PruneTruncated: true}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := bytesPerRun(10), bytesPerRun(2000)
	if large-small > 1024 {
		t.Fatalf("Explore allocated %d B per call over 10-posting lists, %d B over 2000-posting lists", small, large)
	}
}
