package pcache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"dmfb/internal/core"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// Entry is one cached placement result: the placer's own placements,
// so a hit costs a copy, not a parse. Put and Get each copy Pos and
// Rot, so neither the caller that filled the entry nor one that reads
// it can change what a later Get returns; Modules stays shared, being
// immutable by contract.
type Entry struct {
	// Placement is the final placement (never nil).
	Placement *place.Placement
	// Stage1 is the stage-1 placement of a two-stage run (nil for
	// single-stage placers).
	Stage1 *place.Placement
	// Stats are the annealing statistics of the run that produced the
	// entry.
	Stats core.Stats
}

// bytes estimates the heap an entry retains: the module list once (a
// two-stage run's stage 1 shares it), each placement's Pos and Rot,
// and a fixed overhead for the headers and the cached conflict pairs.
func (e Entry) bytes() int {
	n := 256
	for _, m := range e.Placement.Modules {
		n += int(unsafe.Sizeof(m)) + len(m.Name)
	}
	for _, p := range [2]*place.Placement{e.Placement, e.Stage1} {
		if p != nil {
			n += len(p.Pos)*int(unsafe.Sizeof(geom.Point{})) + len(p.Rot)
		}
	}
	return n
}

// clone copies the placements' Pos and Rot so callers can't mutate
// cached data.
func (e Entry) clone() Entry {
	e.Placement = e.Placement.Clone()
	if e.Stage1 != nil {
		e.Stage1 = e.Stage1.Clone()
	}
	return e
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int
}

// Cache is a concurrency-safe, content-addressed placement cache with
// an LRU byte budget. The zero value is not usable; construct with New.
type Cache struct {
	mu     sync.Mutex
	max    int
	bytes  int
	order  *list.List // front = most recently used; values are *cacheItem
	items  map[Key]*list.Element
	reg    *telemetry.Registry
	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

type cacheItem struct {
	key   Key
	entry Entry
}

// DefaultMaxBytes is the cache budget used when New is given a
// non-positive limit: enough for a few thousand placements.
const DefaultMaxBytes = 64 << 20

// New returns a cache holding at most maxBytes of estimated placement
// heap (DefaultMaxBytes if maxBytes <= 0). The registry may be
// nil; when set, the cache maintains pcache.hits / pcache.misses /
// pcache.evictions counters and pcache.bytes / pcache.entries gauges.
func New(maxBytes int, reg *telemetry.Registry) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		max:   maxBytes,
		order: list.New(),
		items: make(map[Key]*list.Element),
		reg:   reg,
	}
}

// Get returns the entry cached under key, if any, marking it most
// recently used.
func (c *Cache) Get(key Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		c.reg.Counter("pcache.misses").Add(1)
		return Entry{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	c.reg.Counter("pcache.hits").Add(1)
	return el.Value.(*cacheItem).entry.clone(), true
}

// Put stores entry under key, evicting least-recently-used entries as
// needed to stay within the byte budget. An entry larger than the
// entire budget is not cached at all.
func (c *Cache) Put(key Key, entry Entry) {
	entry = entry.clone()
	size := entry.bytes()
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*cacheItem)
		c.bytes += size - it.entry.bytes()
		it.entry = entry
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&cacheItem{key: key, entry: entry})
		c.bytes += size
	}
	for c.bytes > c.max {
		back := c.order.Back()
		if back == nil {
			break
		}
		it := back.Value.(*cacheItem)
		c.order.Remove(back)
		delete(c.items, it.key)
		c.bytes -= it.entry.bytes()
		c.evicts.Add(1)
		c.reg.Counter("pcache.evictions").Add(1)
	}
	c.reg.Gauge("pcache.bytes").Set(float64(c.bytes))
	c.reg.Gauge("pcache.entries").Set(float64(len(c.items)))
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := len(c.items), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicts.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}
