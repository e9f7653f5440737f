package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/corpus"
)

// writeBatch is one unit of write work: documents to add to one peer,
// followed by one PublishIndex, optionally preceded by withdrawing an
// earlier document of the same peer.
type writeBatch struct {
	peer   int
	docs   []int // corpus indexes
	remove int   // corpus index to withdraw first, -1 for none
}

// dataSeed generates the document collection, the query pool and the
// write schedule, which are the same on every seed: they are the
// fixture's data set and its fixed write work. What the seed draws is the
// order of every query stream. The cost of a query or a document varies
// several-fold with its terms (which keys are frequent, which query is
// the zipf head), so a collection per seed would make two seeds differ by
// more than two commits do.
const dataSeed = 1

// inputs is everything a run feeds the program, derived from the seed
// and the workload's sizes alone: the same seed gives the same inputs.
type inputs struct {
	corpus *corpus.Collection
	pool   []corpus.Query
	block  []int // pool indexes, each as often as the workload's distribution gives it
	writes []writeBatch
	seed   int64
}

// makeInputs generates the corpus (pre-published documents first, then
// the ones the writer adds), the query pool and the write schedule.
func makeInputs(sp spec, sc scale, seed int64, seconds float64) *inputs {
	batches := sp.writeBatches(sc, seconds)
	nDocs := sc.prePublished(sp) + batches*batchDocs
	in := &inputs{seed: seed}
	in.corpus = corpus.Generate(corpus.Params{
		NumDocs: nDocs, VocabSize: nDocs, ZipfS: 1.0,
		MeanDocLen: 60, NumTopics: 20, Seed: dataSeed,
	})

	// The writer's documents are the ones after the pre-published, in a
	// shuffled order: the same schedule on every seed, so every run and
	// both sides of a comparison do the identical write work.
	arrivals := rand.New(rand.NewSource(dataSeed)).Perm(batches * batchDocs)
	for b := 0; b < batches; b++ {
		wb := writeBatch{peer: b % sc.peers, remove: -1}
		for k := 0; k < batchDocs; k++ {
			wb.docs = append(wb.docs, sc.prePublished(sp)+arrivals[b*batchDocs+k])
		}
		if sp.removeEvery > 0 && b%sp.removeEvery == sp.removeEvery-1 && b >= sc.peers {
			// The first document of this peer's previous batch.
			wb.remove = in.writes[b-sc.peers].docs[0]
		}
		in.writes = append(in.writes, wb)
	}

	// Queries are drawn from the pre-published documents, which are
	// searchable whenever reads run.
	searchable := in.corpus.Docs[:sc.prePublished(sp)]
	in.pool = corpus.GenerateWorkload(&corpus.Collection{Docs: searchable}, corpus.WorkloadParams{
		NumQueries: sc.pool(sp), MaxTerms: 3, PopularityS: 1.0, Seed: dataSeed + 1,
	}).Queries
	in.block = queryBlock(len(in.pool), sp.zipf)
	return in
}

// zipfBlockLen is the length of the zipf workloads' query block: long
// enough that the rarest of 200 queries still appears once.
const zipfBlockLen = 1500

// queryBlock returns the block of pool indexes every query stream cycles
// through. Uniform, it holds each query once. Zipf(1.0) over the pool's
// ranks, it holds query r as near zipfBlockLen·p(r) times as whole
// numbers allow (largest remainders first), so a stream's query
// frequencies are exactly the distribution's and only their order is left
// to the seed: drawn independently, the handful of queries that miss the
// caches varied by a tenth between seeds, and wire bytes per query with it.
func queryBlock(pool int, zipf bool) []int {
	block := make([]int, 0, max(pool, zipfBlockLen))
	if !zipf {
		for q := 0; q < pool; q++ {
			block = append(block, q)
		}
		return block
	}
	var h float64
	for r := 1; r <= pool; r++ {
		h += 1 / float64(r)
	}
	type share struct {
		q    int
		frac float64
	}
	shares := make([]share, pool)
	for q := range shares {
		exact := zipfBlockLen / (float64(q+1) * h)
		whole := int(exact)
		shares[q] = share{q, exact - float64(whole)}
		for k := 0; k < whole; k++ {
			block = append(block, q)
		}
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
	for i := 0; len(block) < zipfBlockLen; i++ {
		block = append(block, shares[i].q)
	}
	return block
}

// stream returns client c's endless query sequence for one phase, as
// indexes into the pool: the block in an order the seed draws, shuffled
// again each time it has been used up.
func (in *inputs) stream(c int, phase string) func() int {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%d/%s", in.seed, c, phase)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	rng := rand.New(rand.NewSource(s))
	order := append([]int(nil), in.block...)
	at := len(order)
	return func() int {
		if at == len(order) {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			at = 0
		}
		at++
		return order[at-1]
	}
}

// digest fingerprints the inputs: corpus text, pool, the head of every
// query stream and the write schedule.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, d := range in.corpus.Docs {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", d.Name, d.Title, d.Body)
	}
	for _, q := range in.pool {
		fmt.Fprintf(h, "%s\x00", q.Text())
	}
	for f := 0; f < frontends; f++ {
		for _, phase := range []string{phaseOpen, phaseClosed} {
			next := in.stream(f, phase)
			for i := 0; i < 1000; i++ {
				fmt.Fprintf(h, "%d,", next())
			}
		}
	}
	for _, wb := range in.writes {
		fmt.Fprintf(h, "%d:%v:%d;", wb.peer, wb.docs, wb.remove)
	}
	return hex.EncodeToString(h.Sum(nil))
}
