package fleet

import (
	"encoding/json"
	"fmt"

	"cobra/internal/store"
)

// The result cache is an internal/store directory of sealed JSON entries
// keyed by service digest.  Because the digest covers the service's
// canonical content AND its dependencies' digests (see File.Digest), a hit
// proves the cached output was produced by byte-identical inputs — skipping
// is substitution, not guessing.  A torn, truncated or bit-flipped entry
// fails its seal, is quarantined as *.corrupt, and is a miss: the executor
// re-runs and rewrites, so corruption heals itself.

// cacheSuffix versions entry filenames.  Unsealed entries from before the
// store (<hex>.json) are never read, so they are deliberate misses rather
// than quarantined corruption.
const cacheSuffix = ".f1.json"

// newCache opens the fleet result cache in dir ("" caches nothing).
func newCache(dir string) *store.Store { return store.New(dir, cacheSuffix, 0, nil) }

// cacheEntry is one cached service result.
type cacheEntry struct {
	Service         string   `json:"service"`
	Digest          string   `json:"digest"`
	Output          string   `json:"output"`
	IntervalDigests []string `json:"interval_digests,omitempty"`
}

// cacheLoad returns the cached entry for digest, if a sealed, well-formed
// one exists.  The entry must name the digest it is filed under.
func cacheLoad(c *store.Store, digest string) (cacheEntry, bool) {
	var e cacheEntry
	data, ok := c.Get(digest)
	if !ok {
		return e, false
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Digest != digest {
		return cacheEntry{}, false
	}
	return e, true
}

// cacheStore seals an entry into the cache.
func cacheStore(c *store.Store, digest string, e cacheEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	if err := c.Put(digest, data); err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	return nil
}
