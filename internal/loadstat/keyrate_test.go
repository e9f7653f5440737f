package loadstat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// scanKeyRate is the linear-scan tracker KeyRate replaced, kept as the
// oracle of TestKeyRateMatchesScan: on every full-table insert it decays
// every entry to now and evicts the smallest count, key order on ties.
type scanKeyRate struct {
	half    time.Duration
	maxKeys int
	keys    map[string]*keyRateEntry
}

func (r *scanKeyRate) decayed(e *keyRateEntry, now time.Time) float64 {
	dt := now.Sub(e.last)
	if dt <= 0 {
		return e.count
	}
	return e.count * math.Exp2(-float64(dt)/float64(r.half))
}

func (r *scanKeyRate) observe(key string, now time.Time) {
	if e, ok := r.keys[key]; ok {
		e.count = r.decayed(e, now) + 1
		e.last = now
		return
	}
	if len(r.keys) >= r.maxKeys {
		victim := ""
		best := math.Inf(1)
		for k, e := range r.keys {
			c := r.decayed(e, now)
			if c < best || (c == best && (victim == "" || k < victim)) {
				best, victim = c, k
			}
		}
		if victim != "" {
			delete(r.keys, victim)
		}
	}
	r.keys[key] = &keyRateEntry{count: 1, last: now}
}

func (r *scanKeyRate) score(key string, now time.Time) float64 {
	if e, ok := r.keys[key]; ok {
		return r.decayed(e, now)
	}
	return 0
}

func (r *scanKeyRate) hot(threshold float64, now time.Time) []string {
	var out []string
	for k, e := range r.keys {
		if r.decayed(e, now) >= threshold {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := r.score(out[i], now), r.score(out[j], now)
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}

// TestKeyRateMatchesScan drives the heap tracker and the linear scan with
// the same random read stream and compares them after every operation:
// the tracked key set (so every eviction picked the same victim), Len,
// the count Observe returns, the Score of every key and Hot at several
// thresholds. The fake clock moves in whole milliseconds, often not at
// all, and the half-lives are powers of two milliseconds: every age is
// then an exact binary fraction of a half-life, so the exact ties the
// scan breaks by key (two reads at one instant against one read a
// half-life later, say) are exact ties of the rank too.
func TestKeyRateMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		half := time.Duration(8<<rng.Intn(4)) * time.Millisecond
		maxKeys := 4 + rng.Intn(61)
		universe := 3 * maxKeys
		now := time.Unix(500, 0)
		kr := NewKeyRate(half, maxKeys, func() time.Time { return now })
		oracle := &scanKeyRate{half: half, maxKeys: maxKeys, keys: map[string]*keyRateEntry{}}
		for op := 0; op < 1000; op++ {
			now = now.Add(time.Duration(rng.Intn(4)) * time.Millisecond)
			// Skewed keys: a few hot ones keep climbing while the tail
			// churns through evictions.
			i := rng.Intn(universe)
			if rng.Intn(3) == 0 {
				i = rng.Intn(4)
			}
			key := "k" + strconv.Itoa(i)
			count := kr.Observe(key)
			oracle.observe(key, now)
			if want := oracle.score(key, now); count != want {
				t.Fatalf("seed %d op %d: Observe(%s) = %v, scan %v", seed, op, key, count, want)
			}

			if kr.Len() != len(oracle.keys) {
				t.Fatalf("seed %d op %d: Len %d, scan %d", seed, op, kr.Len(), len(oracle.keys))
			}
			for k := range oracle.keys {
				if _, ok := kr.keys[k]; !ok {
					t.Fatalf("seed %d op %d: heap evicted %q, which the scan keeps", seed, op, k)
				}
			}
			for j := 0; j < universe; j++ {
				k := "k" + strconv.Itoa(j)
				if got, want := kr.Score(k), oracle.score(k, now); got != want {
					t.Fatalf("seed %d op %d: Score(%s) = %v, scan %v", seed, op, k, got, want)
				}
			}
			for _, th := range []float64{0.25, 1, 2.5} {
				got, want := kr.Hot(th), oracle.hot(th, now)
				if len(got) != 0 || len(want) != 0 {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d op %d: Hot(%v) = %v, scan %v", seed, op, th, got, want)
					}
				}
			}
		}
	}
}

// TestKeyRateExactTiesEvictByKey pins the ties the random stream rarely
// builds: c·2^k reads at one instant against c reads k half-lives later
// decay to exactly the same count, and the scan evicts the smaller key.
// A rank computed as Log2(count) + age rounds the two differently for
// most c; splitting the mantissa off first keeps them tied.
func TestKeyRateExactTiesEvictByKey(t *testing.T) {
	const half = 16 * time.Millisecond
	for c := 1; c <= 50; c++ {
		for k := 1; k <= 3; k++ {
			for _, names := range [][2]string{{"a", "b"}, {"b", "a"}} {
				older, younger := names[0], names[1]
				t0 := time.Unix(500, 0)
				now := t0
				kr := NewKeyRate(half, 2, func() time.Time { return now })
				oracle := &scanKeyRate{half: half, maxKeys: 2, keys: map[string]*keyRateEntry{}}
				read := func(key string, n int) {
					for i := 0; i < n; i++ {
						kr.Observe(key)
						oracle.observe(key, now)
					}
				}
				read(older, c<<k)
				now = t0.Add(time.Duration(k) * half)
				read(younger, c)
				read("z", 1)
				_, kept := kr.keys["a"]
				_, want := oracle.keys["a"]
				if kept != want || kr.Len() != 2 {
					t.Fatalf("c=%d k=%d older=%s: heap kept a=%v, scan %v", c, k, older, kept, want)
				}
			}
		}
	}
}

// TestKeyRateObserveNeverMovesBack pins the clamp: a read stamped before
// the key's last read (its goroutine read the clock, then lost the race
// for the lock) counts at the later instant, so the decay origin of every
// later Score stays put.
func TestKeyRateObserveNeverMovesBack(t *testing.T) {
	now := time.Unix(10, 0)
	kr := NewKeyRate(DefaultKeyRateHalfLife, 0, func() time.Time { return now })
	kr.Observe("k")
	now = time.Unix(5, 0)
	kr.Observe("k")
	now = time.Unix(15, 0)
	want := 2 * math.Exp2(-float64(5*time.Second)/float64(DefaultKeyRateHalfLife))
	if got := kr.Score("k"); got != want {
		t.Fatalf("Score = %v, want %v", got, want)
	}
}

// TestKeyRateConcurrent reads, scores and lists keys from several
// goroutines on the real clock, then checks the bound and that the heap
// and the map still describe the same entries.
func TestKeyRateConcurrent(t *testing.T) {
	kr := NewKeyRate(time.Second, 16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := "k" + strconv.Itoa((g*7+i)%64)
				kr.Observe(key)
				kr.Score(key)
				if i%100 == 0 {
					kr.Hot(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if kr.Len() != 16 || len(kr.cold) != 16 {
		t.Fatalf("tracked %d keys, heap %d entries; want 16 and 16", kr.Len(), len(kr.cold))
	}
	for i, e := range kr.cold {
		if e.index != i || kr.keys[e.key] != e {
			t.Fatalf("heap slot %d holds %q with index %d, not the map's entry", i, e.key, e.index)
		}
	}
}

// BenchmarkKeyRateObserveFull measures Observe on a full 4096-key table
// fed a stream of new keys: every call evicts.
func BenchmarkKeyRateObserveFull(b *testing.B) {
	const full = 4096
	kr := NewKeyRate(DefaultKeyRateHalfLife, full, nil)
	for i := 0; i < full; i++ {
		kr.Observe(fmt.Sprintf("warm-%d", i))
	}
	// Twice the table's worth of keys, cycled: a key comes round again
	// only after 2·full newer ones, so it was evicted long before.
	fresh := make([]string, 2*full)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("new-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kr.Observe(fresh[i%len(fresh)])
	}
}
