package gateway

import (
	"container/list"
	"hash/maphash"
	"sync"

	"pochoir/internal/compiler"
)

// The plan cache's bounds. A plan holds its source and the checked program
// compiled from it; a source over compiler.MaxSourceBytes never compiles,
// so the byte bound is reached only by a full cache of the largest specs.
const (
	planCacheEntries = 64
	planCacheBytes   = planCacheEntries * compiler.MaxSourceBytes
)

// plan is one compiled specification: the source it was compiled from and
// what CompileSourceStats made of it. A *compiler.Checked is immutable, so
// every instance of every job on this source shares one.
type plan struct {
	src     string
	checked *compiler.Checked
	stats   compiler.Stats
	key     uint64 // the cache's hash of src, set by put
}

// planCache maps spec sources to their compiled plans, least recently used
// first out. The paper compiles a specification once and runs it many
// times; the gateway sees the same few specs over and over, and without
// the cache it recompiles each on every submission. Failed compiles are
// never stored, so a bad spec costs its compile every time it is sent.
//
// Entries are found by a hash of the source and confirmed by comparing the
// whole source, so a collision costs a compile, never a wrong plan. The
// zero value is an empty cache; its map is made on the first insert.
type planCache struct {
	// hash overrides the source hash (tests force collisions with it).
	hash func(string) uint64

	mu    sync.Mutex
	seed  maphash.Seed
	byKey map[uint64]*list.Element // of *plan
	lru   list.List                // front = most recently used
	bytes int                      // total source bytes held
}

// key hashes src. Before the first insert the map is empty and nothing
// needs a key, so the seed is drawn then.
func (c *planCache) key(src string) uint64 {
	if c.hash != nil {
		return c.hash(src)
	}
	return maphash.String(c.seed, src)
}

// get returns the plan compiled from src, or nil.
func (c *planCache) get(src string) *plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		return nil
	}
	e, ok := c.byKey[c.key(src)]
	if !ok || e.Value.(*plan).src != src {
		return nil
	}
	c.lru.MoveToFront(e)
	return e.Value.(*plan)
}

// put stores p, replacing whatever plan held its key, then evicts from the
// cold end until both bounds hold.
func (c *planCache) put(p *plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		c.byKey = make(map[uint64]*list.Element)
		c.seed = maphash.MakeSeed()
	}
	p.key = c.key(p.src)
	if old, ok := c.byKey[p.key]; ok {
		c.remove(old)
	}
	c.byKey[p.key] = c.lru.PushFront(p)
	c.bytes += len(p.src)
	for c.lru.Len() > planCacheEntries || c.bytes > planCacheBytes {
		c.remove(c.lru.Back())
	}
}

func (c *planCache) remove(e *list.Element) {
	p := c.lru.Remove(e).(*plan)
	c.bytes -= len(p.src)
	delete(c.byKey, p.key)
}
