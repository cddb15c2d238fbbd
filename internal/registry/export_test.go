package registry

// GoldenCacheStats snapshots the instance cache's counters; Bytes is the
// value radcrit_golden_cache_bytes reports.
func GoldenCacheStats() cacheStats { return golden.stats() }

// SetGoldenCacheLimit swaps the instance cache's bound and returns the
// previous one.
func SetGoldenCacheLimit(n int64) int64 {
	golden.mu.Lock()
	defer golden.mu.Unlock()
	old := golden.limit
	golden.limit = n
	return old
}

// ResetGoldenCache empties the instance cache, counters kept, so the next
// lookup of every spec builds cold.
func ResetGoldenCache() {
	golden.mu.Lock()
	defer golden.mu.Unlock()
	for _, e := range golden.entries {
		golden.removeLocked(e)
	}
}
