package stripe

import (
	"runtime"
	"sort"
	"sync"
	"testing"

	"topk/internal/list"
)

// TestCacheAccountsOnDiskBytes pins the accounting unit: a resident
// block costs its on-disk length, CRC tail included — the size of the
// buffer the cache keeps alive — not the size of a decoded copy.
func TestCacheAccountsOnDiskBytes(t *testing.T) {
	db := genDB(t, 1000, 2)
	sdb := openBytes(t, db, WriteOptions{StripeCap: 64, PosPageCap: 100}, Options{})
	l := sdb.List(1)
	l.At(1)
	l.PositionOf(0)
	idx := sdb.ft.lists[1]
	want := int64(idx.stripes[0].length + idx.pages[0].length)
	if want != int64(entryStripeLen(64)+posPageLen(100)) {
		t.Fatalf("footer lengths %d disagree with the format", want)
	}
	if st := sdb.CacheStats(); st.Resident != want || st.Misses != 2 {
		t.Fatalf("resident %d after one stripe and one page (misses %d), want %d on-disk bytes",
			st.Resident, st.Misses, want)
	}
}

// TestHitPathAllocFree pins the zero-copy read path: once a block is
// resident, At, PositionOf and SeekScore decode in place and allocate
// nothing, and a miss allocates only the block buffer plus the cache's
// own bookkeeping (its entry and LRU element).
func TestHitPathAllocFree(t *testing.T) {
	db := genDB(t, 1000, 1)
	mem := db.List(0)
	sdb := openBytes(t, db, WriteOptions{StripeCap: 64, PosPageCap: 64}, Options{})
	l := sdb.List(0)
	const p, d = 70, list.ItemID(70)
	t0 := mem.At(p).Score // seeks into stripe 1, the one At(p) loads
	l.At(p)
	l.PositionOf(d)
	l.SeekScore(t0)
	for name, read := range map[string]func(){
		"At":         func() { l.At(p) },
		"PositionOf": func() { l.PositionOf(d) },
		"SeekScore":  func() { l.SeekScore(t0) },
	} {
		if a := testing.AllocsPerRun(100, read); a != 0 {
			t.Errorf("%s on a resident block: %v allocs/op, want 0", name, a)
		}
	}

	// A budget of one stripe: alternating between two stripes misses
	// (and evicts) on every read.
	blockLen := entryStripeLen(64)
	one := openBytes(t, db, WriteOptions{StripeCap: 64, PosPageCap: 64}, Options{CacheBytes: int64(blockLen)})
	ol := one.List(0)
	pos := 1
	miss := func() {
		pos = 66 - pos // position 1 (stripe 0) <-> position 65 (stripe 1)
		ol.At(pos)
	}
	miss()
	if a := testing.AllocsPerRun(100, miss); a > 3 {
		t.Errorf("miss: %v allocs/op, want at most 3 (buffer, cache entry, LRU element)", a)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > uint64(blockLen)+256 {
		t.Errorf("miss: %d bytes/op allocated, want the %d-byte block plus bookkeeping", got, blockLen)
	}
	if st := one.CacheStats(); st.Hits != 0 || st.Evictions == 0 {
		t.Fatalf("alternating reads were not all misses: %+v", st)
	}
}

// TestConcurrentReadsUnderEviction drives every read of the Reader
// surface from four goroutines over a cache that holds about two
// blocks, so blocks are evicted while other readers still hold them.
// Every answer is checked against the in-memory list; under -race this
// is the cache's serving-path race test.
func TestConcurrentReadsUnderEviction(t *testing.T) {
	const n, m = 1000, 3
	db := genDB(t, n, m)
	budget := int64(2*entryStripeLen(64) + 64)
	sdb := openBytes(t, db, WriteOptions{StripeCap: 64, PosPageCap: 64}, Options{CacheBytes: budget})

	// seekWant is the linear-scan oracle for SeekScore.
	seekWant := func(mem list.Reader, t0 float64) int {
		return 1 + sort.Search(n, func(i int) bool { return mem.At(i+1).Score < t0 })
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stride := 2*g + 7 // distinct coprime walks per goroutine
			for i := 0; i < m; i++ {
				mem, dsk := db.List(i), sdb.List(i)
				for k := 0; k < n; k++ {
					x := (k*stride + g*101) % n
					p, d := x+1, list.ItemID(x)
					if got, want := dsk.At(p), mem.At(p); got != want {
						t.Errorf("list %d At(%d) = %+v, want %+v", i, p, got, want)
						return
					}
					if got, want := dsk.PositionOf(d), mem.PositionOf(d); got != want {
						t.Errorf("list %d PositionOf(%d) = %d, want %d", i, d, got, want)
						return
					}
					if got, want := dsk.ScoreOf(d), mem.ScoreOf(d); got != want {
						t.Errorf("list %d ScoreOf(%d) = %v, want %v", i, d, got, want)
						return
					}
					if k%8 == 0 {
						t0 := mem.At(p).Score
						if got, want := dsk.SeekScore(t0), seekWant(mem, t0); got != want {
							t.Errorf("list %d SeekScore(%v) = %d, want %d", i, t0, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := sdb.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.MaxResident > st.Budget {
		t.Fatalf("resident high-water %d over budget %d", st.MaxResident, st.Budget)
	}
}
