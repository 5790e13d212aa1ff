package stripe

import (
	"container/list"
	"fmt"
	"sync"
)

// blockKind distinguishes the two cached block families of one list.
type blockKind uint8

const (
	kindEntries blockKind = iota
	kindPositions
)

// ckey addresses one cached block: an entry stripe or a position page of
// one list of one DB (each DB owns its cache, so the DB is implicit).
type ckey struct {
	kind blockKind
	list int32
	idx  int32
}

// String labels the block in error messages.
func (k ckey) String() string {
	if k.kind == kindPositions {
		return fmt.Sprintf("list %d position page %d", k.list, k.idx)
	}
	return fmt.Sprintf("list %d stripe %d", k.list, k.idx)
}

// centry is one resident block: its CRC-checked on-disk bytes, whose
// length is the block's accounted size.
type centry struct {
	key  ckey
	buf  []byte
	elem *list.Element
}

// cache is the LRU block cache of one open DB: raw on-disk blocks under
// a byte budget. The budget is a hard ceiling on the accounted resident
// bytes — insertion evicts first, and a block larger than the whole
// budget is returned to the caller without being admitted — which is
// what lets a deployment cap an owner's memory regardless of list size.
//
// A block is accounted at its on-disk length (CRC tail included), which
// is exactly the buffer it keeps alive; CacheStats (and the process-wide
// obs gauge) report that sum, and the map and LRU bookkeeping add a
// small per-block overhead on top. Cached buffers are never written or
// recycled, so a reader still holding a block after its eviction reads
// valid bytes.
type cache struct {
	mu          sync.Mutex
	budget      int64
	resident    int64
	maxResident int64 // high-water mark of resident
	entries     map[ckey]*centry
	lru         *list.List // front = most recently used; values are *centry
	hits        int64
	misses      int64
	evictions   int64
}

func newCache(budget int64) *cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &cache{budget: budget, entries: make(map[ckey]*centry), lru: list.New()}
}

// CacheStats is a point-in-time snapshot of one DB's stripe cache.
type CacheStats struct {
	Hits      int64 // block reads served from the cache
	Misses    int64 // block reads that went to disk
	Evictions int64 // blocks dropped to respect the budget
	// Resident is the on-disk bytes (CRC tails included) of the blocks
	// currently cached; MaxResident is its high-water mark over the DB's
	// lifetime. Both are always <= Budget.
	Resident    int64
	MaxResident int64
	Budget      int64
}

// lookup returns the resident block for k, counting a hit. On a miss the
// caller loads the block outside the lock and hands it to insert, so
// concurrent misses on distinct blocks overlap their disk reads.
func (c *cache) lookup(k ckey) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	c.mu.Unlock()
	mCacheHits.Inc()
	return e.buf, true
}

// insert admits a block just loaded for k after a lookup miss, counting
// the miss, and returns the copy the caller should read: concurrent
// misses on the same block may both load, and the loser adopts the
// winner's resident copy.
func (c *cache) insert(k ckey, buf []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	mCacheMisses.Inc()
	if e, ok := c.entries[k]; ok { // lost a load race; adopt the resident copy
		c.lru.MoveToFront(e.elem)
		return e.buf
	}
	size := int64(len(buf))
	if size <= c.budget {
		for c.resident+size > c.budget {
			c.evictOldestLocked()
		}
		e := &centry{key: k, buf: buf}
		e.elem = c.lru.PushFront(e)
		c.entries[k] = e
		c.resident += size
		if c.resident > c.maxResident {
			c.maxResident = c.resident
		}
		mCacheResident.Add(float64(size))
	}
	return buf
}

// evictOldestLocked drops the least recently used block. Called with the
// lock held and at least one resident block.
func (c *cache) evictOldestLocked() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	e := back.Value.(*centry)
	c.lru.Remove(back)
	delete(c.entries, e.key)
	size := int64(len(e.buf))
	c.resident -= size
	c.evictions++
	mCacheEvictions.Inc()
	mCacheResident.Add(float64(-size))
}

// stats snapshots the tallies.
func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Resident: c.resident, MaxResident: c.maxResident, Budget: c.budget,
	}
}

// drop releases every resident block (DB.Close), returning the obs
// gauge's share.
func (c *cache) drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := c.resident
	c.entries = make(map[ckey]*centry)
	c.lru.Init()
	c.resident = 0
	mCacheResident.Add(float64(-freed))
}
