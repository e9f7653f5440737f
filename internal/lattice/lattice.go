// Package lattice implements AlvisP2P's retrieval-side lattice
// exploration (paper §2, Figure 1). Given a multi-keyword query, the
// querying peer explores the lattice of its term combinations in
// decreasing combination-size order, requesting each combination's
// posting list from the peer responsible for it. A hit with an
// *untruncated* list excludes the part of the lattice it dominates (all
// sub-combinations) from further exploration; as the paper's
// load-balancing approximation, a hit with a *truncated* list may prune
// its sublattice too, at a marginal loss in precision. The union of all
// retrieved lists is the candidate set the ranking layer draws from.
package lattice

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/postings"
)

// Fetcher is the probe primitive: fetch the posting lists stored for one
// generation of term combinations, in input order (the global index
// implements it, coalescing a generation into one frame per responsible
// peer; tests stub it). The context bounds the probes' network round
// trips.
type Fetcher interface {
	GetBatch(ctx context.Context, combos [][]string, maxResults int) ([]BatchResult, error)
}

// BatchResult is one combination's answer within a batch fetch.
type BatchResult struct {
	List  *postings.List
	Found bool
}

// FetchFunc adapts a one-combination probe function to the Fetcher
// interface.
type FetchFunc func(ctx context.Context, terms []string, maxResults int) (*postings.List, bool, error)

// GetBatch implements Fetcher by calling f once per combination, in
// order, on the caller's goroutine.
func (f FetchFunc) GetBatch(ctx context.Context, combos [][]string, maxResults int) ([]BatchResult, error) {
	out := make([]BatchResult, len(combos))
	for i, combo := range combos {
		list, found, err := f(ctx, combo, maxResults)
		if err != nil {
			return nil, fmt.Errorf("probe %v: %w", combo, err)
		}
		out[i] = BatchResult{List: list, Found: found}
	}
	return out, nil
}

// Config controls the exploration.
type Config struct {
	// PruneTruncated applies the paper's approximation: the sublattice
	// dominated by a key with a truncated posting list is pruned as well
	// (Figure 1 shows this behaviour: after the truncated hit on bc, the
	// keys b and c are skipped).
	PruneTruncated bool
	// MaxResultsPerProbe caps how many postings a probe transfers
	// (0 = the whole stored list, which is itself bounded by TruncK).
	MaxResultsPerProbe int
}

// maxQueryTerms bounds the lattice size: longer queries keep only their
// first maxQueryTerms distinct terms, i.e. at most 63 probes.
const maxQueryTerms = 6

// Probe records one lattice node visit.
type Probe struct {
	Terms     []string
	Found     bool
	Truncated bool
	Postings  int
}

// Trace records an exploration for inspection: the Figure 1 reproduction
// test and the probe-cost experiments read it.
type Trace struct {
	Probed  []Probe
	Skipped [][]string
}

// Probes returns the number of probes issued.
func (t *Trace) Probes() int { return len(t.Probed) }

// String renders the trace in the style of Figure 1's legend.
func (t *Trace) String() string {
	var b strings.Builder
	for _, p := range t.Probed {
		state := "miss"
		if p.Found && p.Truncated {
			state = "hit (truncated)"
		} else if p.Found {
			state = "hit"
		}
		fmt.Fprintf(&b, "probed  {%s}: %s\n", strings.Join(p.Terms, ","), state)
	}
	for _, s := range t.Skipped {
		fmt.Fprintf(&b, "skipped {%s}\n", strings.Join(s, ","))
	}
	return b.String()
}

// Explore runs the lattice exploration for the given distinct query terms
// and returns the lists of every hit, in probe order, plus the trace. It
// does not merge them: the caller ranks the per-key lists itself, and
// postings.Union over the returned lists gives the candidate set.
// A context that dies mid-exploration stops at the next generation
// boundary: the error is the context's, and the trace and the lists
// reflect exactly the probes that completed — the caller still holds
// every list its fetcher gathered, which is what turns a deadline expiry
// into usable partial results.
//
// The sorted masks are walked one generation (combination size) at a
// time. Within a generation no mask can prune another — a covering mask
// only dominates strict subsets, which have strictly fewer bits — so all
// of a generation's unpruned combinations are independent and are
// fetched together, in one GetBatch. Skips, probes, covering updates and
// the trace are then applied in the generation's mask order, so the
// result and trace do not depend on how the fetcher orders or overlaps
// its probes.
func Explore(ctx context.Context, f Fetcher, queryTerms []string, cfg Config) ([]*postings.List, *Trace, error) {
	terms := dedupeSorted(queryTerms)
	if len(terms) == 0 {
		return nil, &Trace{}, nil
	}
	if len(terms) > maxQueryTerms {
		terms = terms[:maxQueryTerms]
	}
	n := len(terms)

	// Enumerate non-empty subsets by decreasing size; within a size, in
	// lexicographic order of the term combination (matching Figure 1's
	// ab, ac, bc order).
	masks := make([]uint, 0, (1<<n)-1)
	for m := uint(1); m < 1<<n; m++ {
		masks = append(masks, m)
	}
	slices.SortFunc(masks, func(a, b uint) int {
		if c := cmp.Compare(popcount(b), popcount(a)); c != 0 {
			return c
		}
		// Lexicographic on the combination = numeric on the mask read as
		// smallest-index-first: lower set bits first.
		return lexCompare(a, b, n)
	})

	trace := &Trace{}
	var lists []*postings.List
	var covering []uint
	// Every generation's probe set is a window of one backing array, so
	// the bookkeeping allocates per exploration, not per generation.
	probeBuf := make([]uint, 0, len(masks))
	comboBuf := make([][]string, 0, len(masks))

	for start := 0; start < len(masks); {
		if err := ctx.Err(); err != nil {
			// Between generations: everything gathered so far is a clean
			// prefix of the exploration.
			return lists, trace, err
		}
		end := start
		size := popcount(masks[start])
		for end < len(masks) && popcount(masks[end]) == size {
			end++
		}
		gen := masks[start:end]
		start = end

		first := len(probeBuf)
		for _, m := range gen {
			if coveredBy(m, covering) {
				trace.Skipped = append(trace.Skipped, maskTerms(m, terms))
				continue
			}
			probeBuf = append(probeBuf, m)
			comboBuf = append(comboBuf, maskTerms(m, terms))
		}
		probe, combos := probeBuf[first:], comboBuf[first:]
		if len(probe) == 0 {
			continue
		}

		results, err := f.GetBatch(ctx, combos, cfg.MaxResultsPerProbe)
		if err != nil {
			return nil, trace, fmt.Errorf("lattice: level %d: %w", size, err)
		}
		if len(results) != len(combos) {
			return nil, trace, fmt.Errorf("lattice: level %d: %d results for %d combos", size, len(results), len(combos))
		}
		for i, r := range results {
			p := Probe{Terms: combos[i], Found: r.Found}
			if r.Found {
				p.Truncated = r.List.Truncated
				p.Postings = r.List.Len()
				lists = append(lists, r.List)
				if !r.List.Truncated || cfg.PruneTruncated {
					covering = append(covering, probe[i])
				}
			}
			trace.Probed = append(trace.Probed, p)
		}
	}
	return lists, trace, nil
}

// coveredBy reports whether m is a strict sub-combination of any
// covering mask (its probe is skipped).
func coveredBy(m uint, covering []uint) bool {
	for _, c := range covering {
		if m&c == m && m != c {
			return true
		}
	}
	return false
}

func dedupeSorted(terms []string) []string {
	out := append([]string(nil), terms...)
	sort.Strings(out)
	j := 0
	for i, t := range out {
		if i > 0 && t == out[j-1] {
			continue
		}
		out[j] = t
		j++
	}
	return out[:j]
}

func popcount(m uint) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// lexCompare orders equal-popcount masks so that the term combinations
// they select over n sorted terms come out lexicographically: the
// combination with the earliest differing index first.
func lexCompare(a, b uint, n int) int {
	for i := 0; i < n; i++ {
		ba := a&(1<<i) != 0
		bb := b&(1<<i) != 0
		if ba != bb {
			if ba {
				return -1 // a contains the earlier index: a first
			}
			return 1
		}
	}
	return 0
}

func maskTerms(m uint, terms []string) []string {
	out := make([]string, 0, popcount(m))
	for i := range terms {
		if m&(1<<i) != 0 {
			out = append(out, terms[i])
		}
	}
	return out
}
