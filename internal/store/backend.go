package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Backend is the content-addressed store contract the service layer runs
// against. The disk Store is the production implementation; Mem backs
// tests and ephemeral daemons. All implementations must:
//
//   - accept only lowercase-hex keys of 8..128 bytes (ValidKey);
//   - make Put atomic: a concurrent Get sees the old value or the new
//     value, never a tear;
//   - refresh an entry's recency on Get, so GC evicts least recently
//     *used*, not least recently written;
//   - evict deterministically on recency ties (key order).
//
// The conformance suite in backend_test.go pins these properties for
// every implementation.
type Backend interface {
	// Put stores data under key, atomically replacing any previous entry.
	Put(key string, data []byte) error
	// Get returns the entry under key and refreshes its recency.
	Get(key string) ([]byte, bool)
	// Has reports presence without refreshing recency.
	Has(key string) bool
	// Delete removes key's entry (a no-op when absent).
	Delete(key string) error
	// Stats returns the entry count and total byte size.
	Stats() (entries int, bytes int64, err error)
	// GC evicts least-recently-used entries until total size is at most
	// maxBytes (<= 0 disables eviction). Returns entries evicted and
	// bytes reclaimed.
	GC(maxBytes int64) (evicted int, reclaimed int64, err error)
}

var _ Backend = (*Store)(nil)
var _ Backend = (*Mem)(nil)

// ValidKey checks that key is a plausible content digest — lowercase
// hex, 8..128 bytes — so no key can escape a disk root or collide with
// the sharding scheme.
func ValidKey(key string) error {
	if len(key) < 8 || len(key) > 128 {
		return fmt.Errorf("store: key %q: length out of range", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// TenantPrefix maps a tenant name to the hex fragment prepended to its
// store keys. The default tenant (and the empty name) gets no prefix, so
// every key written by a pre-tenancy daemon stays addressable — existing
// state directories keep their dedup hits. Other tenants get a 16-hex
// digest fragment of the name, which keeps their entries disjoint from
// each other and from the default namespace while staying within
// ValidKey's alphabet and length budget (16 + 64-hex cell key = 80).
func TenantPrefix(tenantName string) string {
	if tenantName == "" || tenantName == "default" {
		return ""
	}
	sum := sha256.Sum256([]byte("tenant:" + tenantName))
	return hex.EncodeToString(sum[:8])
}
