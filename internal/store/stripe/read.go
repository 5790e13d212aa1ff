package stripe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"topk/internal/list"
)

// Options configures an open stripe database.
type Options struct {
	// CacheBytes is the stripe-cache budget over the on-disk bytes of
	// the cached blocks, CRC tails included; 0 means DefaultCacheBytes.
	// The accounted resident bytes never exceed it.
	CacheBytes int64
}

// DB is an open stripe file: the resident footer index plus the LRU
// block cache. All methods are safe for concurrent use; the lists it
// hands out serve reads with pread, so N sessions of one owner share one
// descriptor without seeking over each other.
type DB struct {
	r      io.ReaderAt
	closer io.Closer // nil when opened over a caller-owned ReaderAt
	ft     footer
	cache  *cache
	lists  []*List
}

// Open opens the stripe file at path, reading only its trailer and
// footer — this is what makes an owner restart warm: no data block is
// touched until a query asks for it.
func Open(path string, opts Options) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stripe: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stripe: stat: %w", err)
	}
	db, err := OpenReader(f, st.Size(), opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	db.closer = f
	return db, nil
}

// OpenReader opens a stripe database over any io.ReaderAt of the given
// size (Open wraps it over an *os.File). The reader must stay valid for
// the life of the DB; Close does not close it.
func OpenReader(r io.ReaderAt, size int64, opts Options) (*DB, error) {
	ft, err := readFooter(r, size)
	if err != nil {
		return nil, err
	}
	db := &DB{r: r, ft: *ft, cache: newCache(opts.CacheBytes)}
	db.lists = make([]*List, ft.m)
	for i := range db.lists {
		db.lists[i] = &List{db: db, idx: i}
	}
	return db, nil
}

// readFooter reads and validates the trailer and footer.
func readFooter(r io.ReaderAt, size int64) (*footer, error) {
	minSize := int64(len(magic)) + trailerLen
	if size < minSize {
		return nil, fmt.Errorf("stripe: file of %d bytes is too small", size)
	}
	var hdr [8]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("stripe: read magic: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("stripe: bad magic %q", hdr[:])
	}
	var tr [trailerLen]byte
	if _, err := r.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("stripe: read trailer: %w", err)
	}
	if !equalBytes(tr[16:24], endMagic[:]) {
		return nil, fmt.Errorf("stripe: bad end magic %q (truncated or not a stripe file)", tr[16:24])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	footerLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	wantCRC := binary.LittleEndian.Uint32(tr[12:16])
	if footerOff < int64(len(magic)) || footerOff+footerLen != size-trailerLen {
		return nil, fmt.Errorf("stripe: footer extent [%d,%d) does not meet the trailer at %d (truncated footer)",
			footerOff, footerOff+footerLen, size-trailerLen)
	}
	fb := make([]byte, footerLen)
	if _, err := r.ReadAt(fb, footerOff); err != nil {
		return nil, fmt.Errorf("stripe: read footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(fb); got != wantCRC {
		return nil, fmt.Errorf("stripe: footer checksum mismatch: trailer %08x, computed %08x", wantCRC, got)
	}
	ft, err := decodeFooter(fb)
	if err != nil {
		return nil, err
	}
	if err := ft.validate(footerOff); err != nil {
		return nil, err
	}
	return ft, nil
}

// decodeFooter parses the footer bytes. Every count is checked against
// the expectation the dimensions imply before anything is allocated, so
// a corrupt footer cannot drive allocation beyond the file's own size.
func decodeFooter(b []byte) (*footer, error) {
	d := &decoder{b: b}
	if v := d.u32(); v != 1 {
		return nil, fmt.Errorf("stripe: unsupported format version %d", v)
	}
	ft := &footer{}
	ft.m = int(d.u32())
	ft.n = int(d.u64())
	ft.stripeCap = int(d.u32())
	ft.posPageCap = int(d.u32())
	if d.err != nil {
		return nil, fmt.Errorf("stripe: truncated footer header: %w", d.err)
	}
	if ft.m < 1 || ft.n < 1 || ft.m > maxDimension || ft.n > maxDimension ||
		ft.stripeCap < 1 || ft.stripeCap > maxDimension ||
		ft.posPageCap < 1 || ft.posPageCap > maxDimension {
		return nil, fmt.Errorf("stripe: implausible footer header m=%d n=%d stripeCap=%d posPageCap=%d",
			ft.m, ft.n, ft.stripeCap, ft.posPageCap)
	}
	wantStripes := numBlocks(ft.n, ft.stripeCap)
	wantPages := numBlocks(ft.n, ft.posPageCap)
	// Reject before allocating: the remaining footer bytes must hold
	// every index record the header promises.
	need := ft.m * (4 + wantStripes*40 + 4 + wantPages*20)
	if d.remaining() != need {
		return nil, fmt.Errorf("stripe: footer holds %d index bytes, want %d", d.remaining(), need)
	}
	ft.lists = make([]listIndex, ft.m)
	for i := range ft.lists {
		ns := int(d.u32())
		if ns != wantStripes {
			return nil, fmt.Errorf("stripe: list %d indexes %d stripes, want %d", i, ns, wantStripes)
		}
		stripes := make([]stripeInfo, ns)
		for s := range stripes {
			stripes[s] = stripeInfo{
				off:      int64(d.u64()),
				length:   int(d.u32()),
				firstPos: int(d.u64()),
				count:    int(d.u32()),
				maxScore: d.f64(),
				minScore: d.f64(),
			}
		}
		np := int(d.u32())
		if np != wantPages {
			return nil, fmt.Errorf("stripe: list %d indexes %d position pages, want %d", i, np, wantPages)
		}
		pages := make([]pageInfo, np)
		for p := range pages {
			pages[p] = pageInfo{
				off:       int64(d.u64()),
				length:    int(d.u32()),
				firstItem: int(d.u32()),
				count:     int(d.u32()),
			}
		}
		ft.lists[i] = listIndex{stripes: stripes, pages: pages}
	}
	if d.err != nil {
		return nil, fmt.Errorf("stripe: truncated footer: %w", d.err)
	}
	return ft, nil
}

// decoder is a bounds-checked little-endian reader over the footer.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) remaining() int { return len(d.b) - d.off }

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// M returns the number of lists.
func (db *DB) M() int { return db.ft.m }

// N returns the number of items per list.
func (db *DB) N() int { return db.ft.n }

// StripeCap returns the entries-per-stripe capacity of the file.
func (db *DB) StripeCap() int { return db.ft.stripeCap }

// List returns the i-th disk-backed list (0-based).
func (db *DB) List(i int) *List { return db.lists[i] }

// Database assembles every list of the file into a *list.Database, the
// drop-in replacement for a memory-resident database: probes, owners and
// all algorithms run over it unchanged.
func (db *DB) Database() (*list.Database, error) {
	rs := make([]list.Reader, len(db.lists))
	for i, l := range db.lists {
		rs[i] = l
	}
	return list.NewReaderDatabase(rs...)
}

// CacheStats snapshots the stripe cache's tallies.
func (db *DB) CacheStats() CacheStats { return db.cache.stats() }

// Close releases the cache and, when the DB was opened from a path, the
// file descriptor. Lists handed out must not be used afterwards.
func (db *DB) Close() error {
	db.cache.drop()
	if db.closer != nil {
		return db.closer.Close()
	}
	return nil
}

// readBlock reads one data block — its whole on-disk extent, CRC tail
// included — and checks the CRC over the payload before it.
func (db *DB) readBlock(k ckey, off int64, length int) ([]byte, error) {
	buf := make([]byte, length)
	if _, err := db.r.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("stripe: read %v: %w", k, err)
	}
	payload := buf[:length-4]
	want := binary.LittleEndian.Uint32(buf[length-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("stripe: %v checksum mismatch: file %08x, computed %08x", k, want, got)
	}
	return buf, nil
}

// loadEntryStripe reads and checks one entry stripe in place, without
// touching the cache, and returns its raw on-disk bytes (see entryAt).
func (db *DB) loadEntryStripe(li, si int) ([]byte, error) {
	st := db.ft.lists[li].stripes[si]
	k := ckey{kind: kindEntries, list: int32(li), idx: int32(si)}
	buf, err := db.readBlock(k, st.off, st.length)
	if err != nil {
		return nil, err
	}
	if got := int(binary.LittleEndian.Uint32(buf)); got != st.count {
		return nil, fmt.Errorf("stripe: %v holds %d entries, footer says %d", k, got, st.count)
	}
	items := buf[4 : 4+4*st.count]
	scores := buf[4+4*st.count : 4+12*st.count]
	n := uint32(db.ft.n)
	prev := math.Inf(1)
	// Reslice-and-advance: the length guards let the compiler drop every
	// per-element bounds check. A negative item reads as a huge uint32,
	// so one unsigned compare covers [0,n).
	for j := 0; len(items) >= 4 && len(scores) >= 8; j++ {
		item := binary.LittleEndian.Uint32(items)
		sc := math.Float64frombits(binary.LittleEndian.Uint64(scores))
		items, scores = items[4:], scores[8:]
		if item >= n {
			return nil, fmt.Errorf("stripe: %v position %d: item %d out of range [0,%d)", k, st.firstPos+j, int32(item), n)
		}
		if math.IsNaN(sc) {
			return nil, fmt.Errorf("stripe: %v position %d: NaN score", k, st.firstPos+j)
		}
		if sc > prev {
			return nil, fmt.Errorf("stripe: %v position %d: scores out of order (%v > %v)", k, st.firstPos+j, sc, prev)
		}
		prev = sc
	}
	// The fences are the index every fence-guided read trusts; a stripe
	// that disagrees with its own footer record is corrupt.
	if hi, lo := scoreAt(buf, st.count, 0), prev; hi != st.maxScore || lo != st.minScore {
		return nil, fmt.Errorf("stripe: %v scores [%v,%v] disagree with its fences [%v,%v]",
			k, lo, hi, st.minScore, st.maxScore)
	}
	return buf, nil
}

// loadPosPage reads and checks one id→position page in place, without
// touching the cache, and returns its raw on-disk bytes (see posAt).
func (db *DB) loadPosPage(li, pi int) ([]byte, error) {
	pg := db.ft.lists[li].pages[pi]
	k := ckey{kind: kindPositions, list: int32(li), idx: int32(pi)}
	buf, err := db.readBlock(k, pg.off, pg.length)
	if err != nil {
		return nil, err
	}
	if got := int(binary.LittleEndian.Uint32(buf)); got != pg.count {
		return nil, fmt.Errorf("stripe: %v holds %d items, footer says %d", k, got, pg.count)
	}
	// p-1 wraps for p == 0 (and for negative positions), so one unsigned
	// compare checks 1 <= p <= n. Every random access lands on a page,
	// so the fast loop checks four positions per compare; the scalar
	// loop finishes the tail and pins the first bad position.
	n := uint32(db.ft.n)
	ps := buf[4 : 4+4*pg.count]
	for len(ps) >= 16 && max(binary.LittleEndian.Uint32(ps)-1, binary.LittleEndian.Uint32(ps[4:])-1,
		binary.LittleEndian.Uint32(ps[8:])-1, binary.LittleEndian.Uint32(ps[12:])-1) < n {
		ps = ps[16:]
	}
	for j := pg.count - len(ps)/4; len(ps) >= 4; j++ {
		p := binary.LittleEndian.Uint32(ps)
		ps = ps[4:]
		if p-1 >= n {
			return nil, fmt.Errorf("stripe: %v item %d: position %d out of range [1,%d]", k, pg.firstItem+j, int32(p), n)
		}
	}
	return buf, nil
}

// entryAt decodes entry j of a raw entry stripe holding count entries:
// the item from the item column, the score from the score column.
func entryAt(b []byte, count, j int) list.Entry {
	return list.Entry{
		Item:  list.ItemID(int32(binary.LittleEndian.Uint32(b[4+4*j:]))),
		Score: scoreAt(b, count, j),
	}
}

// scoreAt decodes only the score of entry j of a raw entry stripe.
func scoreAt(b []byte, count, j int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[4+4*count+8*j:]))
}

// posAt decodes the position of the j-th item of a raw position page.
func posAt(b []byte, j int) int {
	return int(binary.LittleEndian.Uint32(b[4+4*j:]))
}

// block returns one raw block through the cache, loading and checking it
// on a miss and panicking on IO errors or corruption (see the package
// comment: reads after a successful Open are fail-stop).
func (db *DB) block(k ckey) []byte {
	if b, ok := db.cache.lookup(k); ok {
		return b
	}
	var b []byte
	var err error
	if k.kind == kindEntries {
		b, err = db.loadEntryStripe(int(k.list), int(k.idx))
	} else {
		b, err = db.loadPosPage(int(k.list), int(k.idx))
	}
	if err != nil {
		panic(err)
	}
	return db.cache.insert(k, b)
}

// entryStripe returns the raw bytes of entry stripe si of list li.
func (db *DB) entryStripe(li, si int) []byte {
	return db.block(ckey{kind: kindEntries, list: int32(li), idx: int32(si)})
}

// posPage returns the raw bytes of position page pi of list li.
func (db *DB) posPage(li, pi int) []byte {
	return db.block(ckey{kind: kindPositions, list: int32(li), idx: int32(pi)})
}

// Verify streams every block of the file — bypassing the cache — and
// checks full structural integrity: block checksums, in-stripe order and
// fence agreement (as on every load), plus the whole-list invariants a
// lazy read cannot see: each item appears exactly once across the
// stripes, and every position page agrees with where the stripes
// actually placed each item. It allocates 4 bytes per item transiently.
func (db *DB) Verify() error {
	posOf := make([]int32, db.ft.n)
	for li := range db.ft.lists {
		for d := range posOf {
			posOf[d] = 0
		}
		for si, st := range db.ft.lists[li].stripes {
			b, err := db.loadEntryStripe(li, si)
			if err != nil {
				return err
			}
			for j := 0; j < st.count; j++ {
				item := entryAt(b, st.count, j).Item
				if posOf[item] != 0 {
					return fmt.Errorf("stripe: list %d: item %d appears at positions %d and %d",
						li, item, posOf[item], st.firstPos+j)
				}
				posOf[item] = int32(st.firstPos + j)
			}
		}
		for pi, pg := range db.ft.lists[li].pages {
			b, err := db.loadPosPage(li, pi)
			if err != nil {
				return err
			}
			for j := 0; j < pg.count; j++ {
				if p := posAt(b, j); int(posOf[pg.firstItem+j]) != p {
					return fmt.Errorf("stripe: list %d: position page says item %d is at %d, stripes place it at %d",
						li, pg.firstItem+j, p, posOf[pg.firstItem+j])
				}
			}
		}
	}
	return nil
}

// List is one disk-backed sorted list: the stripe store's list.Reader.
// All methods are safe for concurrent use and panic on out-of-range
// arguments, exactly like *list.List.
type List struct {
	db  *DB
	idx int
}

var _ list.Reader = (*List)(nil)

// Len returns n, the number of entries.
func (l *List) Len() int { return l.db.ft.n }

// At returns the entry at 1-based position p, loading (at most) the one
// stripe covering p.
func (l *List) At(p int) list.Entry {
	if p < 1 || p > l.db.ft.n {
		panic(fmt.Sprintf("stripe: position %d out of range [1,%d]", p, l.db.ft.n))
	}
	si := (p - 1) / l.db.ft.stripeCap
	b := l.db.entryStripe(l.idx, si)
	return entryAt(b, l.db.ft.lists[l.idx].stripes[si].count, (p-1)-si*l.db.ft.stripeCap)
}

// PositionOf returns the 1-based position of item d, loading (at most)
// the one id→position page covering d.
func (l *List) PositionOf(d list.ItemID) int {
	if d < 0 || int(d) >= l.db.ft.n {
		panic(fmt.Sprintf("stripe: item %d out of range [0,%d)", d, l.db.ft.n))
	}
	pi := int(d) / l.db.ft.posPageCap
	return posAt(l.db.posPage(l.idx, pi), int(d)-pi*l.db.ft.posPageCap)
}

// ScoreOf returns the local score of item d: a position-page read plus a
// stripe read, the disk shape of one random access.
func (l *List) ScoreOf(d list.ItemID) float64 {
	return l.At(l.PositionOf(d)).Score
}

// SeekScore returns the first 1-based position whose score is strictly
// below t, or Len()+1 when every score is >= t. It binary-searches the
// footer's score fences to pick the single stripe that can hold the
// boundary, so a threshold seek over an arbitrarily long list costs at
// most one stripe load — this is what the fences buy sorted scans.
func (l *List) SeekScore(t float64) int {
	stripes := l.db.ft.lists[l.idx].stripes
	// First stripe whose minimum fence drops below t; earlier stripes
	// are entirely >= t.
	si := sort.Search(len(stripes), func(i int) bool { return stripes[i].minScore < t })
	if si == len(stripes) {
		return l.db.ft.n + 1
	}
	st := stripes[si]
	if st.maxScore < t {
		// The whole stripe is below t: the boundary is its first
		// position. No data block touched.
		return st.firstPos
	}
	b := l.db.entryStripe(l.idx, si)
	j := sort.Search(st.count, func(i int) bool { return scoreAt(b, st.count, i) < t })
	return st.firstPos + j
}
