package registry

import (
	"container/list"
	"sync"
	"sync/atomic"

	"radcrit/internal/kernels"
	"radcrit/internal/telemetry"
)

// goldenCacheBytes bounds the golden state the instance cache keeps: the
// sum of GoldenBytes over every cached kernel.
const goldenCacheBytes = 256 << 20

// goldenSized is implemented by kernels that report the golden state
// they hold. All four built-ins do; the footprint grows after insertion
// as strikes publish lazily built rows, boxes and timeline states.
type goldenSized interface {
	GoldenBytes() int64
}

// instanceCache holds built kernel instances, golden state included,
// keyed by canonical spec: the family plus the parsed integers, so
// "dgemm:0256" and "dgemm:256" share one entry. It is bounded by golden
// bytes: every lookup re-sums the cached footprint and evicts
// least-recently-used entries until the sum fits the limit. The entry a
// lookup returns is never evicted by that lookup, so one instance larger
// than the whole bound stays until a later lookup displaces it. A caller
// holding an evicted instance keeps using it; the cache only drops its
// reference.
type instanceCache struct {
	mu      sync.Mutex
	limit   int64
	entries map[string]*cacheEntry // by canonical spec
	lru     list.List              // of *cacheEntry, most recently used first

	hits, misses, evictions atomic.Uint64
}

// cacheEntry is one cached instance. k is set under the cache lock, then
// ready is closed, so a lookup that found the entry mid-build waits on
// ready and reads k without the lock.
type cacheEntry struct {
	key   string
	el    *list.Element // position in lru
	ready chan struct{}
	k     kernels.Kernel
	fail  any   // the panic of a failed build
	bytes int64 // footprint at the last re-sum
}

var golden = newInstanceCache(goldenCacheBytes)

func newInstanceCache(limit int64) *instanceCache {
	return &instanceCache{limit: limit, entries: map[string]*cacheEntry{}}
}

// cached returns the instance cached under key, building it on a miss.
// Concurrent lookups of a missing key build once: the first caller runs
// build, the others wait for it and count as hits.
func cached[K kernels.Kernel](key string, build func() K) K {
	return golden.get(key, func() kernels.Kernel { return build() }).(K)
}

func (c *instanceCache) get(key string, build func() kernels.Kernel) kernels.Kernel {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits.Add(1)
		c.lru.MoveToFront(e.el)
		c.evictLocked()
		c.mu.Unlock()
		<-e.ready
		if e.fail != nil {
			panic(e.fail)
		}
		return e.k
	}
	c.misses.Add(1)
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.el = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	c.fill(e, build)
	if e.fail != nil {
		panic(e.fail)
	}
	return e.k
}

// fill runs build for a fresh entry. A panicking build removes the entry,
// so the next lookup builds again, and hands the panic to every waiter.
func (c *instanceCache) fill(e *cacheEntry, build func() kernels.Kernel) {
	defer close(e.ready)
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			e.fail = r
			c.removeLocked(e)
			c.mu.Unlock()
		}
	}()
	k := build()
	c.mu.Lock()
	e.k = k
	c.lru.MoveToFront(e.el) // a no-op once the entry is gone
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked re-sums the cached footprint and drops least-recently-used
// built entries, never the front one, until the sum fits the limit.
func (c *instanceCache) evictLocked() {
	total := c.sumLocked()
	for el := c.lru.Back(); el != nil && el != c.lru.Front() && total > c.limit; {
		prev := el.Prev()
		if e := el.Value.(*cacheEntry); e.k != nil {
			total -= e.bytes
			c.removeLocked(e)
			c.evictions.Add(1)
		}
		el = prev
	}
}

// removeLocked drops e from the cache if it is still there.
func (c *instanceCache) removeLocked(e *cacheEntry) {
	if c.entries[e.key] == e {
		c.lru.Remove(e.el)
		delete(c.entries, e.key)
	}
}

// sumLocked refreshes every built entry's footprint and returns the sum.
func (c *instanceCache) sumLocked() int64 {
	var total int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if s, ok := e.k.(goldenSized); ok {
			e.bytes = s.GoldenBytes()
			total += e.bytes
		}
	}
	return total
}

// cacheStats is a snapshot of the instance cache's counters.
type cacheStats struct {
	Hits, Misses, Evictions uint64
	Bytes                   int64 // golden state held now, re-summed
}

func (c *instanceCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.sumLocked(),
	}
}

// RegisterMetrics exports the golden-state instance cache on reg. The
// counters move once per kernel lookup (a plan cell), never per strike;
// the bytes gauge re-sums the cached footprint at scrape time.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("radcrit_golden_cache_hits_total",
		"Kernel lookups served by a cached instance and its golden state.",
		func() float64 { return float64(golden.hits.Load()) })
	reg.CounterFunc("radcrit_golden_cache_misses_total",
		"Kernel lookups that built a new instance.",
		func() float64 { return float64(golden.misses.Load()) })
	reg.CounterFunc("radcrit_golden_cache_evictions_total",
		"Cached instances dropped to keep golden state under the bound.",
		func() float64 { return float64(golden.evictions.Load()) })
	reg.GaugeFunc("radcrit_golden_cache_bytes",
		"Golden state held by cached kernel instances.",
		func() float64 { return float64(golden.stats().Bytes) })
}
