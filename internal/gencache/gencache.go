// Package gencache is the bounded memo behind the replay hot path's two
// process-wide caches: the replayer's XPath compile cache and the script
// parse cache. Both memoize a pure function of a string (an expression,
// a script source) whose result is immutable once built, so one cached
// value can serve every replay and every goroutine.
//
// A Cache holds at most two generations of entries. Inserts go to the
// current generation; when it fills, the previous generation is dropped
// and the current one takes its place. A hit in the previous generation
// re-inserts the entry into the current one, so keys that stay hot
// survive rotation — a long campaign crossing the cap evicts only
// entries cold for a full generation, instead of cold-starting every
// hot key at once.
//
// A key is stored only from its second sighting on. Some pages mint a
// unique script on every load (GMail embeds freshly generated element
// ids), and caching those one-shot values retained megabytes of dead
// ASTs for no hits; first sightings therefore record only a 64-bit FNV-1a
// hash of the key, kept in two generations of the same bound, and the
// value is stored once the hash recurs.
//
// Errors are cached like any other value: V carries them (a struct of
// result and error), so a trace with an unparseable expression or a
// page with a broken script does not reparse it on every use.
package gencache

import (
	"sync"

	"github.com/dslab-epfl/warr/internal/fnv1a"
)

// Cache is a two-generation memo from string keys to values of type V.
// The zero value is not usable; construct one with New. A Cache is safe
// for concurrent use.
type Cache[V any] struct {
	gen int

	mu       sync.RWMutex
	cur      map[string]V
	prev     map[string]V
	seen     map[uint64]struct{}
	seenPrev map[uint64]struct{}
}

// New returns an empty cache holding at most gen entries per generation.
func New[V any](gen int) *Cache[V] {
	return &Cache[V]{
		gen:  gen,
		cur:  make(map[string]V),
		seen: make(map[uint64]struct{}),
	}
}

// Get returns the value cached under key, or calls compute and returns
// its result. Concurrent misses on one key may each call compute; the
// values must therefore be interchangeable.
func (c *Cache[V]) Get(key string, compute func() V) V {
	c.mu.RLock()
	if v, ok := c.cur[key]; ok {
		// The common case — a current-generation hit — never takes the
		// write lock, so concurrent campaign workers don't serialize on
		// the hot path.
		c.mu.RUnlock()
		return v
	}
	v, hit := c.prev[key]
	c.mu.RUnlock()
	var h uint64
	if !hit {
		v = compute()
		h = fnv1a.String(key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !hit && !c.sighted(h) {
		return v
	}
	if _, ok := c.cur[key]; !ok {
		if len(c.cur) >= c.gen {
			c.prev, c.cur = c.cur, make(map[string]V, c.gen)
		}
		c.cur[key] = v
	}
	return v
}

// sighted records a sighting of the key hash h and reports whether the
// hash had been sighted before. The caller holds c.mu.
func (c *Cache[V]) sighted(h uint64) bool {
	if _, ok := c.seen[h]; ok {
		return true
	}
	if _, ok := c.seenPrev[h]; ok {
		return true
	}
	if len(c.seen) >= c.gen {
		c.seenPrev, c.seen = c.seen, make(map[uint64]struct{}, c.gen)
	}
	c.seen[h] = struct{}{}
	return false
}
