package serve

import (
	"container/list"
	"errors"
	"sync"

	"saqp/internal/cluster"
	"saqp/internal/selectivity"
)

const (
	// maxSpellings bounds the raw texts the text tier remembers per cache
	// entry (oldest dropped): a query reaches a server in as many
	// spellings as it has client code paths, usually one, and the bound
	// keeps the tier at most this many times the cache's entry count.
	maxSpellings = 2
	// maxSpellingBloat: a text is remembered only when it is at most this
	// many times as long as its normalized form. The wire admits 1 MiB
	// bulks and the normalizer folds whitespace and comments, so without a
	// byte rule padded spellings of a 150-byte query could pin megabytes
	// each; real spellings measure 1.0–1.2×.
	maxSpellingBloat = 2
)

// cacheEntry is one compile+estimate result. The entry is published into
// the cache before its computation runs; ready closes once est/err
// are final and no field changes afterwards, so waiters (and holders of
// evicted entries) read immutable state.
type cacheEntry struct {
	key   string
	ready chan struct{}
	// spellings[:nSpell] are the raw texts the text tier maps to this
	// entry, oldest first; guarded by planCache.mu.
	spellings [maxSpellings]string
	nSpell    int

	est     *selectivity.QueryEstimate
	wrd     float64
	predSec float64
	err     error
}

// planCache is a bounded LRU of compile+estimate results keyed by
// normalized SQL + catalog fingerprint, with single-flight semantics:
// concurrent lookups of one key share a single computation, so N
// identical submissions cost one compile. Entries are inserted at lookup
// time (so duplicates can join the flight immediately); a computation
// that fails is removed when published, letting later submissions retry,
// unless it failed on the task bound: that refusal stays, so a repeat is
// a hit.
//
// In front of the key sits an exact-text tier: byText maps raw submitted
// bytes to the element their key names, so a repeated text is served
// without parsing. The tier decides nothing — Parse, String and the
// fingerprint are pure, so equal bytes have equal keys — it memoises
// which live entry a text's key names, and a spelling is dropped with
// its entry: byText[text] is absent or is entries[CacheKey of text].
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // key → element whose Value is *cacheEntry
	byText  map[string]*list.Element // remembered spelling → the same element
	lru     list.List                // front = most recently used

	hits, misses, evictions uint64
}

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		byText:  make(map[string]*list.Element, capacity),
	}
}

// lookupText returns the entry a remembered spelling names, or nil: the
// whole cost of a repeated text. A text hit is a cache hit in every
// respect — LRU bump, hit count, the caller waits on entry.ready.
func (c *planCache) lookupText(text string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.hit(c.byText, text); el != nil {
		return el.Value.(*cacheEntry)
	}
	return nil
}

// lookup returns the entry for key and whether the caller owns its
// computation. An owner must fill the entry and call publish exactly
// once; every other caller waits on entry.ready. Evicted reports how
// many older entries the insertion displaced. A non-empty text — the
// spelling the caller derived key from — is remembered on the entry.
func (c *planCache) lookup(key, text string) (e *cacheEntry, owner bool, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.hit(c.entries, key)
	if owner = el == nil; owner {
		c.misses++
		el = c.lru.PushFront(&cacheEntry{key: key, ready: make(chan struct{})})
		c.entries[key] = el
		for c.lru.Len() > c.cap {
			c.drop(c.lru.Back())
			c.evictions++
			evicted++
		}
	}
	e = el.Value.(*cacheEntry)
	// Two first submissions of one text both miss the tier; the second
	// finds the spelling already there.
	if _, known := c.byText[text]; text != "" && !known {
		if e.nSpell == maxSpellings {
			delete(c.byText, e.spellings[0])
			e.nSpell = copy(e.spellings[:], e.spellings[1:])
		}
		e.spellings[e.nSpell] = text
		e.nSpell++
		c.byText[text] = el
	}
	return e, owner, evicted
}

// hit returns tier's element for k, if present, bumping it to the LRU
// front and counting the hit. It is the steady-state path of every
// repeated submission — by text, or by key for a new spelling — and
// must not allocate. Callers must hold c.mu.
//
//saqp:hotpath
func (c *planCache) hit(tier map[string]*list.Element, k string) *list.Element {
	el, ok := tier[k]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el
}

// drop removes an element from the LRU, the key map and — every
// spelling of it — the text tier. Callers must hold c.mu.
func (c *planCache) drop(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	for i, text := range e.spellings[:e.nSpell] {
		delete(c.byText, text)
		e.spellings[i] = ""
	}
	e.nSpell = 0
}

// publish closes the entry's ready channel, releasing waiters. Failed
// computations are dropped from the cache so the error is not sticky,
// except a *cluster.TaskBoundError: a retry would only refuse again.
func (c *planCache) publish(e *cacheEntry) {
	close(e.ready)
	if e.err == nil {
		return
	}
	// Declared past the nil check: errors.As moves bound to the heap.
	var bound *cluster.TaskBoundError
	if errors.As(e.err, &bound) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The entry may already have been evicted, or even replaced by a
	// fresh flight for the same key; only drop our own element.
	if el, ok := c.entries[e.key]; ok && el.Value.(*cacheEntry) == e {
		c.drop(el)
	}
}

// counters returns the cache's lifetime hit/miss/eviction counts.
func (c *planCache) counters() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// len returns the current entry and remembered-spelling counts.
func (c *planCache) len() (entries, spellings int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), len(c.byText)
}
