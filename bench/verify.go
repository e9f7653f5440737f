package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/postings"
	"repro/internal/storage"
)

// quietPeer is the peer the untimed reference pass enters through. It
// serves no timed queries, so its caches are cold and its answers show
// the stored index rather than the age of a cache entry.
const quietPeer = 2

// gates is the outcome of the correctness checks; any non-zero count
// (or a failed operation) makes the run incorrect.
type gates struct {
	checked         int     // queries in the reference pass
	emptyAnswers    int     // queries with co-occurring terms that got no result
	failedQueries   int     // reference-pass queries that failed outright
	overlap         float64 // mean overlap@10 with the centralized reference
	cacheChecked    int
	cacheMismatches int
	lostKeys        int // durability: acknowledged keys missing or altered after a process-kill image is reopened
	recoverMs       float64
}

func (g gates) ok() bool {
	return g.emptyAnswers == 0 && g.failedQueries == 0 && g.cacheMismatches == 0 && g.lostKeys == 0
}

// sample returns up to n pool indexes, evenly spaced.
func sample(pool, n int) []int {
	if n >= pool {
		n = pool
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * pool / n
	}
	return out
}

// referencePass queries a sample of the distinct pool through the quiet
// peer and compares each answer with centralized BM25 over the live
// documents. Every query whose terms co-occur in some live document
// must return something.
func (rn *runner) referencePass(ctx context.Context, g *gates) {
	r := rn.ring
	const k = 10
	var total float64
	for _, qi := range sample(len(rn.in.pool), rn.sc.sample) {
		text := rn.in.pool[qi].Text()
		resp, err := r.peers[quietPeer].Search(ctx, text, searchOpts(false)...)
		g.checked++
		if err != nil || resp == nil || resp.Partial {
			g.failedQueries++
			continue
		}
		terms := r.central.Analyzer().UniqueTerms(text)
		if len(resp.Results) == 0 && len(r.central.BooleanAnd(terms)) > 0 {
			g.emptyAnswers++
		}
		want := r.reference(text, k)
		if len(want) == 0 {
			total++
			continue
		}
		wanted := make(map[int]bool, len(want))
		for _, di := range want {
			wanted[di] = true
		}
		hit := 0
		for _, res := range resp.Results {
			if di, live := r.docOf[res.Ref]; live && wanted[di] {
				hit++
			}
		}
		total += float64(hit) / float64(len(want))
	}
	g.overlap = ratio(total, float64(g.checked-g.failedQueries))
}

// topSet is a result set for tie-aware comparison: documents scoring
// exactly the k-th score may legitimately swap in and out.
type topSet struct {
	scores   map[postings.DocRef]float64
	boundary float64
}

func topSetOf(rs []core.Result) topSet {
	ts := topSet{scores: make(map[postings.DocRef]float64, len(rs))}
	for _, r := range rs {
		ts.scores[r.Ref] = r.Score
	}
	if len(rs) > 0 {
		ts.boundary = rs[len(rs)-1].Score
	}
	return ts
}

// sameTop reports whether two result sets agree on every document that
// scores above its set's k-th score (the rule of sim's E13).
func sameTop(a, b topSet) bool {
	tol := func(s float64) float64 { return 1e-4 * max(s, 1) }
	oneWay := func(x, y topSet) bool {
		for ref, sc := range x.scores {
			if _, ok := y.scores[ref]; !ok && sc > x.boundary+tol(x.boundary) {
				return false
			}
		}
		return true
	}
	return len(a.scores) == len(b.scores) && oneWay(a, b) && oneWay(b, a)
}

// cacheGate asks frontend 0 each sampled query three times: once to fill
// the result cache (or hit what the timed phases left there), once to be
// answered from it, once bypassing it. The cached and the bypassing
// answers must agree.
func (rn *runner) cacheGate(ctx context.Context, g *gates) {
	p := rn.ring.peers[0]
	for _, qi := range sample(len(rn.in.pool), 50) {
		text := rn.in.pool[qi].Text()
		var answers [3]*core.SearchResponse
		for i := range answers {
			opts := searchOpts(false)
			if i == 2 {
				opts = searchOpts(false, core.WithResultCache(false))
			}
			resp, err := p.Search(ctx, text, opts...)
			if err != nil || resp == nil || resp.Partial {
				g.failedQueries++
				break
			}
			answers[i] = resp
		}
		if answers[2] == nil {
			continue
		}
		g.cacheChecked++
		if !sameTop(topSetOf(answers[1].Results), topSetOf(answers[2].Results)) {
			g.cacheMismatches++
		}
	}
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// durabilityGate takes the image a killed process would leave — a copy
// of every live data directory, no Close, no flush — reopens the copies
// and requires every key the live stores hold, with its exact posting
// list, to be there. Fsync is off (the engine's default), so this checks
// what survives a process kill through the page cache, not a power cut.
func (rn *runner) durabilityGate(dataRoot string, g *gates) error {
	for i, p := range rn.ring.peers {
		img := filepath.Join(dataRoot, "crash", fmt.Sprintf("peer%d", i))
		if err := os.MkdirAll(img, 0o755); err != nil {
			return err
		}
		entries, err := os.ReadDir(rn.ring.dirs[i])
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.Type().IsRegular() {
				if err := copyFile(filepath.Join(img, e.Name()), filepath.Join(rn.ring.dirs[i], e.Name())); err != nil {
					return err
				}
			}
		}
		start := time.Now()
		reopened, err := storage.Open(img, storage.Options{})
		if err != nil {
			return fmt.Errorf("reopen crash image of peer %d: %w", i, err)
		}
		g.recoverMs += ms(time.Since(start))
		live := p.GlobalIndex().Store()
		for _, key := range live.Keys() {
			want, _ := live.Peek(key)
			got, ok := reopened.Peek(key)
			if !ok || !reflect.DeepEqual(want.Entries, got.Entries) {
				g.lostKeys++
			}
		}
		if err := reopened.Close(); err != nil {
			return err
		}
	}
	return nil
}

// diskRatio is bytes on disk per byte of stored index, over all peers.
func (r *ring) diskRatio() (float64, error) {
	var disk, index float64
	for i, p := range r.peers {
		b, err := dirBytes(r.dirs[i])
		if err != nil {
			return 0, err
		}
		disk += float64(b)
		index += float64(p.GlobalIndex().Store().Stats().Bytes)
	}
	return ratio(disk, index), nil
}
