package stripe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"topk/internal/core"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
)

// genDB builds a deterministic uniform database.
func genDB(t testing.TB, n, m int) *list.Database {
	t.Helper()
	db, err := gen.Generate(gen.Spec{Kind: gen.Uniform, N: n, M: m, Seed: 42})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return db
}

// openBytes writes db in stripe form and reopens it in memory.
func openBytes(t testing.TB, db *list.Database, wopts WriteOptions, opts Options) *DB {
	t.Helper()
	raw, err := WriteBytes(db, wopts)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	sdb, err := OpenReader(bytes.NewReader(raw), int64(len(raw)), opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { sdb.Close() })
	return sdb
}

// TestRoundTrip checks the full Reader surface of every list against the
// in-memory source, with capacities small enough to force many blocks
// (including a ragged final stripe), plus Verify.
func TestRoundTrip(t *testing.T) {
	db := genDB(t, 1000, 3)
	sdb := openBytes(t, db, WriteOptions{StripeCap: 64, PosPageCap: 100}, Options{})
	if sdb.M() != db.M() || sdb.N() != db.N() {
		t.Fatalf("dims (%d,%d), want (%d,%d)", sdb.M(), sdb.N(), db.M(), db.N())
	}
	if err := sdb.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	for i := 0; i < db.M(); i++ {
		mem, dsk := db.List(i), sdb.List(i)
		if dsk.Len() != mem.Len() {
			t.Fatalf("list %d: Len %d, want %d", i, dsk.Len(), mem.Len())
		}
		for p := 1; p <= mem.Len(); p++ {
			if got, want := dsk.At(p), mem.At(p); got != want {
				t.Fatalf("list %d At(%d) = %+v, want %+v", i, p, got, want)
			}
		}
		for d := 0; d < db.N(); d++ {
			id := list.ItemID(d)
			if got, want := dsk.PositionOf(id), mem.PositionOf(id); got != want {
				t.Fatalf("list %d PositionOf(%d) = %d, want %d", i, d, got, want)
			}
			if got, want := dsk.ScoreOf(id), mem.ScoreOf(id); got != want {
				t.Fatalf("list %d ScoreOf(%d) = %v, want %v", i, d, got, want)
			}
		}
	}
}

// TestFileRoundTrip exercises the Create/Open path over a real file.
func TestFileRoundTrip(t *testing.T) {
	db := genDB(t, 500, 2)
	path := filepath.Join(t.TempDir(), "lists.stripe")
	if err := Create(path, db, WriteOptions{StripeCap: 128}); err != nil {
		t.Fatalf("create: %v", err)
	}
	sdb, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer sdb.Close()
	if err := sdb.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got, want := sdb.List(1).At(500), db.List(1).At(500); got != want {
		t.Fatalf("At(500) = %+v, want %+v", got, want)
	}
}

// TestBoundedMemory is the issue's acceptance scenario: a database about
// ten times the cache budget must serve TA and BPA2 with bit-identical
// results while the accounted resident bytes never exceed the budget —
// asserted both through CacheStats' high-water mark and through the
// process-wide obs gauge.
func TestBoundedMemory(t *testing.T) {
	const n, m = 20000, 4
	db := genDB(t, n, m)
	// m lists x n entries at 16 bytes plus 4 bytes of position page
	// each — about 1.6 MB, a little over the 1.3 MB on disk. Budget a
	// tenth.
	total := int64(m*n*16 + m*n*4)
	budget := total / 10
	sdb := openBytes(t, db, WriteOptions{StripeCap: 512, PosPageCap: 1024}, Options{CacheBytes: budget})

	gaugeBefore := mCacheResident.Value()
	for _, alg := range []core.Algorithm{core.AlgTA, core.AlgBPA2} {
		opts := core.Options{K: 20, Scoring: score.Sum{}}
		want, err := core.Run(alg, db, opts)
		if err != nil {
			t.Fatalf("%v in-memory: %v", alg, err)
		}
		disk, err := sdb.Database()
		if err != nil {
			t.Fatalf("database: %v", err)
		}
		got, err := core.Run(alg, disk, opts)
		if err != nil {
			t.Fatalf("%v stripe-backed: %v", alg, err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatalf("%v items diverge:\n disk %v\n ram  %v", alg, got.Items, want.Items)
		}
		if got.Counts != want.Counts {
			t.Fatalf("%v access counts diverge: disk %+v, ram %+v", alg, got.Counts, want.Counts)
		}
		if got.StopPosition != want.StopPosition {
			t.Fatalf("%v stop position %d, want %d", alg, got.StopPosition, want.StopPosition)
		}
	}

	st := sdb.CacheStats()
	if st.Budget != budget {
		t.Fatalf("budget %d, want %d", st.Budget, budget)
	}
	if st.MaxResident > st.Budget {
		t.Fatalf("resident high-water %d exceeded the budget %d", st.MaxResident, st.Budget)
	}
	if st.MaxResident == 0 || st.Misses == 0 {
		t.Fatalf("cache never used: %+v", st)
	}
	if g := mCacheResident.Value() - gaugeBefore; g > float64(budget) {
		t.Fatalf("obs resident gauge grew by %v, over the budget %d", g, budget)
	}
	before := sdb.CacheStats().Resident
	sdb.Close()
	if got := mCacheResident.Value() - gaugeBefore; got > float64(0) && before > 0 {
		// Close must hand back this DB's whole share.
		if math.Abs(got) > 1e-9 {
			t.Fatalf("obs resident gauge still holds %v after Close", got)
		}
	}
}

// TestEviction forces the LRU to cycle and checks the hard ceiling under
// pressure, including a block larger than the whole budget being served
// uncached.
func TestEviction(t *testing.T) {
	db := genDB(t, 4096, 2)
	// Stripes are 4+256*12+4 = 3080 bytes on disk; the budget holds
	// two.
	sdb := openBytes(t, db, WriteOptions{StripeCap: 256, PosPageCap: 256}, Options{CacheBytes: 9 << 10})
	for p := 1; p <= 4096; p += 16 {
		sdb.List(0).At(p)
		sdb.List(1).At(p)
	}
	st := sdb.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.MaxResident > st.Budget {
		t.Fatalf("high-water %d over budget %d", st.MaxResident, st.Budget)
	}

	// A budget smaller than any one block: every read is served,
	// nothing is admitted.
	tiny := openBytes(t, db, WriteOptions{StripeCap: 256, PosPageCap: 256}, Options{CacheBytes: 100})
	if got, want := tiny.List(0).At(1), db.List(0).At(1); got != want {
		t.Fatalf("uncached read = %+v, want %+v", got, want)
	}
	if st := tiny.CacheStats(); st.Resident != 0 || st.MaxResident != 0 {
		t.Fatalf("oversized block was admitted: %+v", st)
	}
}

// TestSeekScore checks the fence-guided threshold seek against a linear
// scan, and that a seek resolved by fences alone touches no data block.
func TestSeekScore(t *testing.T) {
	db := genDB(t, 2000, 1)
	mem := db.List(0)
	seek := func(t0 float64) int {
		for p := 1; p <= mem.Len(); p++ {
			if mem.At(p).Score < t0 {
				return p
			}
		}
		return mem.Len() + 1
	}
	sdb := openBytes(t, db, WriteOptions{StripeCap: 100, PosPageCap: 100}, Options{})
	l := sdb.List(0)
	for _, t0 := range []float64{2, 1, 0.9, 0.5, 0.1, 0.0001, 0, -1} {
		if got, want := l.SeekScore(t0), seek(t0); got != want {
			t.Fatalf("SeekScore(%v) = %d, want %d", t0, got, want)
		}
	}
	// Per seek at most one stripe load: with 20 stripes and 8 seeks,
	// strictly fewer loads than a scan would need.
	if st := sdb.CacheStats(); st.Misses > 8 {
		t.Fatalf("%d block loads for 8 seeks", st.Misses)
	}

	// -inf threshold: below every fence, resolved with zero loads.
	fresh := openBytes(t, db, WriteOptions{StripeCap: 100, PosPageCap: 100}, Options{})
	if got := fresh.List(0).SeekScore(math.Inf(-1)); got != mem.Len()+1 {
		t.Fatalf("SeekScore(-inf) = %d, want %d", got, mem.Len()+1)
	}
	if st := fresh.CacheStats(); st.Misses != 0 {
		t.Fatalf("SeekScore(-inf) loaded %d blocks, want 0", st.Misses)
	}
}

// TestWarmReopen is the warm-restart property: reopening a stripe file
// reads only the trailer and footer — zero data-block loads until a
// query arrives — and then serves correct answers.
func TestWarmReopen(t *testing.T) {
	db := genDB(t, 3000, 3)
	path := filepath.Join(t.TempDir(), "warm.stripe")
	if err := Create(path, db, WriteOptions{}); err != nil {
		t.Fatalf("create: %v", err)
	}

	first, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	first.List(0).At(1) // touch a block, then "crash"
	first.Close()

	second, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer second.Close()
	if st := second.CacheStats(); st.Misses != 0 || st.Resident != 0 {
		t.Fatalf("reopen touched data blocks: %+v", st)
	}
	disk, err := second.Database()
	if err != nil {
		t.Fatalf("database: %v", err)
	}
	opts := core.Options{K: 5, Scoring: score.Sum{}}
	want, err := core.Run(core.AlgTA, db, opts)
	if err != nil {
		t.Fatalf("ram run: %v", err)
	}
	got, err := core.Run(core.AlgTA, disk, opts)
	if err != nil {
		t.Fatalf("disk run: %v", err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) || got.Counts != want.Counts {
		t.Fatalf("after reopen: %+v, want %+v", got, want)
	}
}

// TestOpenRejectsCorruption covers the open-time error paths the fuzz
// target hammers: truncation, bad magics, and a corrupted footer.
func TestOpenRejectsCorruption(t *testing.T) {
	db := genDB(t, 300, 2)
	raw, err := WriteBytes(db, WriteOptions{StripeCap: 64, PosPageCap: 64})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	open := func(b []byte) error {
		sdb, err := OpenReader(bytes.NewReader(b), int64(len(b)), Options{})
		if err == nil {
			sdb.Close()
		}
		return err
	}
	if err := open(raw); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}

	cases := map[string][]byte{
		"empty":            {},
		"tiny":             raw[:16],
		"truncated tail":   raw[:len(raw)-1],
		"truncated footer": append(append([]byte{}, raw[:len(raw)-trailerLen-40]...), raw[len(raw)-trailerLen:]...),
	}
	badMagic := append([]byte{}, raw...)
	badMagic[0] = 'X'
	cases["bad magic"] = badMagic
	badEnd := append([]byte{}, raw...)
	badEnd[len(badEnd)-1] = 'X'
	cases["bad end magic"] = badEnd
	// Flip one byte inside the footer (the CRC in the trailer catches it).
	footOff := binary.LittleEndian.Uint64(raw[len(raw)-trailerLen:])
	badFoot := append([]byte{}, raw...)
	badFoot[footOff+4] ^= 0xff
	cases["footer bit flip"] = badFoot

	for name, b := range cases {
		if err := open(b); err == nil {
			t.Errorf("%s: opened without error", name)
		}
	}
}

// TestVerifyCatchesDataCorruption flips a byte inside a data block: Open
// succeeds (it reads only trailer+footer), Verify reports it, and a read
// touching the block panics — the documented fail-stop contract.
func TestVerifyCatchesDataCorruption(t *testing.T) {
	db := genDB(t, 300, 1)
	raw, err := WriteBytes(db, WriteOptions{StripeCap: 64, PosPageCap: 64})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	raw[12] ^= 0xff // inside the first entry stripe
	sdb, err := OpenReader(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer sdb.Close()
	if err := sdb.Verify(); err == nil {
		t.Fatal("Verify accepted a corrupted stripe")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("read of a corrupted stripe did not panic")
		}
	}()
	sdb.List(0).At(1)
}

// TestCreateAtomic ensures a failed Create leaves no partial file behind.
func TestCreateAtomic(t *testing.T) {
	sub := filepath.Join(t.TempDir(), "gone")
	db := genDB(t, 10, 1)
	if err := Create(filepath.Join(sub, "x.stripe"), db, WriteOptions{}); err == nil {
		t.Fatal("Create into a missing directory succeeded")
	}
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Fatalf("unexpected state: %v", err)
	}
}

// TestLoadRejectsCorruptBlocks reaches every structural check a block
// load runs behind its CRC: each case corrupts one field of a data block
// and reseals the block's checksum, so only the in-place validation can
// catch it. Verify must report it and a read touching the block must
// panic.
func TestLoadRejectsCorruptBlocks(t *testing.T) {
	const n = 30
	db := genDB(t, n, 1)
	raw, err := WriteBytes(db, WriteOptions{StripeCap: 8, PosPageCap: 8})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	footOff := binary.LittleEndian.Uint64(raw[len(raw)-trailerLen:])
	ft, err := decodeFooter(raw[footOff : len(raw)-trailerLen])
	if err != nil {
		t.Fatalf("footer: %v", err)
	}
	st, pg := ft.lists[0].stripes[1], ft.lists[0].pages[1]
	item := func(j int) int { return int(st.off) + 4 + 4*j }
	score := func(j int) int { return int(st.off) + 4 + 4*st.count + 8*j }
	putF := func(b []byte, at int, v float64) { binary.LittleEndian.PutUint64(b[at:], math.Float64bits(v)) }
	putU := func(b []byte, at int, v uint32) { binary.LittleEndian.PutUint32(b[at:], v) }
	readStripe := func(l *List) { l.At(st.firstPos) }

	type corruption struct {
		name, want  string
		off, length int // the block to reseal
		mutate      func(b []byte)
		read        func(l *List)
	}
	inStripe := func(name, want string, mutate func(b []byte)) corruption {
		return corruption{name, want, int(st.off), st.length, mutate, readStripe}
	}
	cases := []corruption{
		inStripe("stripe count", "footer says", func(b []byte) { putU(b, int(st.off), uint32(st.count+1)) }),
		inStripe("item too large", "out of range", func(b []byte) { putU(b, item(2), n) }),
		inStripe("negative item", "out of range", func(b []byte) { putU(b, item(2), math.MaxUint32) }),
		inStripe("NaN score", "NaN", func(b []byte) { putF(b, score(3), math.NaN()) }),
		inStripe("unsorted scores", "out of order", func(b []byte) { putF(b, score(1), st.maxScore+1) }),
		inStripe("fence disagreement", "fences", func(b []byte) { putF(b, score(0), st.maxScore+1) }),
		{"page count", "footer says", int(pg.off), pg.length,
			func(b []byte) { putU(b, int(pg.off), uint32(pg.count+1)) },
			func(l *List) { l.PositionOf(list.ItemID(pg.firstItem)) }},
	}
	// A bad position in every slot of a full page and of the ragged
	// last one, so each slot the range check visits is covered.
	for _, pi := range []int{1, len(ft.lists[0].pages) - 1} {
		pg := ft.lists[0].pages[pi]
		for j := 0; j < pg.count; j++ {
			for _, bad := range []uint32{0, n + 1, math.MaxUint32} {
				at := int(pg.off) + 4 + 4*j
				cases = append(cases, corruption{
					fmt.Sprintf("page %d slot %d position %d", pi, j, int32(bad)),
					fmt.Sprintf("item %d: position %d out of range", pg.firstItem+j, int32(bad)),
					int(pg.off), pg.length,
					func(b []byte) { putU(b, at, bad) },
					func(l *List) { l.PositionOf(list.ItemID(pg.firstItem + j)) },
				})
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := append([]byte{}, raw...)
			c.mutate(b)
			end := c.off + c.length - 4
			putU(b, end, crc32.ChecksumIEEE(b[c.off:end]))
			sdb, err := OpenReader(bytes.NewReader(b), int64(len(b)), Options{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer sdb.Close()
			if err := sdb.Verify(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Verify = %v, want an error containing %q", err, c.want)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("read of the corrupted block did not panic")
				}
			}()
			c.read(sdb.List(0))
		})
	}
}
