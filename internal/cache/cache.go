// Package cache implements the set-associative cache tag store used for
// every level of the simulated hierarchy (Table 1: L1 64KB / L2 512KB /
// L3 8MB / L4 64MB, all 8-way, 64B blocks) and for the counter cache.
//
// Caches here are timing/state models: they track presence, MESI state,
// dirtiness and LRU order, while actual data contents live in the machine's
// physical-memory image (see internal/physmem). That split keeps the cache
// model small and lets timing-only experiments run without data storage.
package cache

import (
	"fmt"
	"math/bits"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/stats"
)

// State is a MESI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Config describes one cache.
type Config struct {
	Name       string
	Size       int // total bytes; must be a multiple of Assoc*BlockSize
	Assoc      int
	HitLatency clock.Cycles
}

// Meta is the state a cache stores per way besides its tag. Lookup,
// Probe and LookupOwned return a pointer to it; callers update State and
// Dirty through that pointer.
type Meta struct {
	State State
	Dirty bool
}

// Line is a line removed from the cache (an eviction victim, an
// invalidated or flushed line): its tag plus the metadata it held.
type Line struct {
	Tag uint64 // block address >> BlockShift
	Meta
}

// Addr returns the block address this line caches.
func (l Line) Addr() addr.Phys { return addr.Phys(l.Tag) << addr.BlockShift }

// invalidTag marks an empty way in the tag mirror. Real tags are block
// addresses shifted right by BlockShift, far below this value.
const invalidTag = ^uint64(0)

// Cache is a set-associative tag store with true-LRU replacement.
//
// The store is laid out structure-of-arrays for probe locality: tags
// holds one word per way (an 8-way set's tags fill exactly one 64-byte
// hardware cache line) and meta holds the 2-byte State/Dirty metadata
// callers mutate through the pointers Lookup/Probe return. The tag lives
// only in tags; the Line values Insert, Invalidate and FlushAll return
// are rebuilt from it. Invalid ways carry invalidTag, so the probe scan
// is a bare word compare with no validity test; their metadata is stale
// and never read, since Insert overwrites it when it fills the way. Both
// arrays are set-major (set i occupies [i*assoc, (i+1)*assoc)).
//
// LRU order is a permutation, not a clock: for assoc <= 8 each set has
// one rank word in which byte i holds way i's recency rank (0 = least,
// assoc-1 = most recent; unused bytes are 0xff). Every touch moves a
// way to the top rank, exactly the total order per-way clocks would
// record, in one word-sized read-modify-write instead of a clock array
// 8x the size. Wider caches fall back to per-way clocks. Hit/miss
// outcomes, LRU order, victim choice and all statistics are identical
// to the obvious array-of-structs scan under either scheme.
type Cache struct {
	cfg      Config
	tags     []uint64 // tag per way, invalidTag when empty
	rank     []uint64 // assoc <= 8: one recency-rank word per set
	lrus     []uint64 // assoc > 8: replacement clock per way
	meta     []Meta   // State/Dirty per way
	assoc    int
	setMask  uint64
	bodyMask uint64 // rank-word bytes that correspond to real ways
	useClock uint64

	hits, misses, evictions, dirtyEvictions stats.Counter
}

// New creates a cache. It panics on a malformed geometry, since cache
// geometry is static configuration.
func New(cfg Config) *Cache {
	if cfg.Assoc <= 0 || cfg.Size <= 0 || cfg.Size%(cfg.Assoc*addr.BlockSize) != 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d assoc=%d", cfg.Name, cfg.Size, cfg.Assoc))
	}
	nsets := cfg.Size / (cfg.Assoc * addr.BlockSize)
	if bits.OnesCount(uint(nsets)) != 1 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, nsets))
	}
	if cfg.Assoc > 1<<16 {
		panic(fmt.Sprintf("cache %s: associativity %d too large", cfg.Name, cfg.Assoc))
	}
	tags := make([]uint64, nsets*cfg.Assoc)
	for i := range tags {
		tags[i] = invalidTag
	}
	c := &Cache{
		cfg:     cfg,
		tags:    tags,
		meta:    make([]Meta, nsets*cfg.Assoc),
		assoc:   cfg.Assoc,
		setMask: uint64(nsets - 1),
	}
	if cfg.Assoc <= 8 {
		initRank := ^uint64(0)
		for i := 0; i < cfg.Assoc; i++ {
			initRank = initRank&^(0xff<<(8*uint(i))) | uint64(i)<<(8*uint(i))
			c.bodyMask |= 0x80 << (8 * uint(i))
		}
		c.rank = make([]uint64, nsets)
		for i := range c.rank {
			c.rank[i] = initRank
		}
	} else {
		c.lrus = make([]uint64, nsets*cfg.Assoc)
	}
	return c
}

// SWAR constants for the rank-word update: one set bit per byte lane.
const (
	rankLo = 0x0101010101010101
	rankHi = 0x8080808080808080
)

// touch moves way i of set si to the top recency rank: every way ranked
// above it slides down one, then way i takes rank assoc-1. This is the
// move-to-front step of true LRU, done bit-parallel on the rank word.
func (c *Cache) touch(si uint64, i int) {
	if c.rank == nil {
		c.useClock++
		c.lrus[int(si)*c.assoc+i] = c.useClock
		return
	}
	w := c.rank[si]
	r := w >> (8 * uint(i)) & 0xff
	// Per-byte b > r test: bit 7 of (b|0x80)-(r+1) is set iff b >= r+1
	// (r+1 <= 8, so no cross-byte borrow). Restricted to real ways.
	gt := ((w | rankHi) - (r+1)*rankLo) & c.bodyMask
	w -= gt >> 7 // slide every higher-ranked way down one
	w = w&^(0xff<<(8*uint(i))) | uint64(c.assoc-1)<<(8*uint(i))
	c.rank[si] = w
}

// mruWay returns the most-recently-used way of set si (rank assoc-1),
// from the same rank word a hit would have to touch anyway. Probing it
// first exploits temporal locality: on an MRU hit the move-to-top is a
// no-op, so the whole scan-and-touch collapses to one tag compare.
func (c *Cache) mruWay(si uint64) int {
	w := c.rank[si] ^ uint64(c.assoc-1)*rankLo
	z := (w - rankLo) & ^w & c.bodyMask
	return bits.TrailingZeros64(z) >> 3
}

// lruWay returns the least-recently-used way of set si, consulted only
// when every way is valid. Ranks are a permutation, so exactly one real
// way holds rank 0; the zero-byte scan finds it.
func (c *Cache) lruWay(si uint64) int {
	if c.rank == nil {
		base := int(si) * c.assoc
		vi := 0
		for i := 1; i < c.assoc; i++ {
			if c.lrus[base+i] < c.lrus[base+vi] {
				vi = i
			}
		}
		return vi
	}
	w := c.rank[si]
	z := (w - rankLo) & ^w & c.bodyMask
	return bits.TrailingZeros64(z) >> 3
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.tags) / c.assoc }

func tagOf(a addr.Phys) uint64 { return uint64(a) >> addr.BlockShift }

// probeWay returns the way index holding block a, or -1. The scan reads
// only the tag mirror — one hardware cache line per 8-way set.
func (c *Cache) probeWay(a addr.Phys) int {
	tag := tagOf(a)
	base := int(tag&c.setMask) * c.assoc
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == tag {
			return base + i
		}
	}
	return -1
}

// Lookup finds the line caching block a, counting a hit or miss and
// refreshing LRU order on a hit. It returns nil on a miss. The returned
// pointer stays valid until the line is replaced; callers may update
// State and Dirty through it.
func (c *Cache) Lookup(a addr.Phys) *Meta {
	tag := tagOf(a)
	si := tag & c.setMask
	base := int(si) * c.assoc
	tags := c.tags[base : base+c.assoc]
	if c.rank != nil {
		if m := c.mruWay(si); tags[m] == tag {
			c.hits.Inc()
			return &c.meta[base+m]
		}
	}
	for i := range tags {
		if tags[i] == tag {
			c.hits.Inc()
			c.touch(si, i)
			return &c.meta[base+i]
		}
	}
	c.misses.Inc()
	return nil
}

// LookupHit is Lookup for callers that only need the hit/miss outcome:
// identical statistics and LRU refresh, but it never touches the line
// metadata array (the shared-level lookups in the hierarchy's read and
// write paths discard the line pointer).
func (c *Cache) LookupHit(a addr.Phys) bool {
	tag := tagOf(a)
	si := tag & c.setMask
	base := int(si) * c.assoc
	tags := c.tags[base : base+c.assoc]
	if c.rank != nil {
		if m := c.mruWay(si); tags[m] == tag {
			c.hits.Inc()
			return true
		}
	}
	for i := range tags {
		if tags[i] == tag {
			c.hits.Inc()
			c.touch(si, i)
			return true
		}
	}
	c.misses.Inc()
	return false
}

// LookupOwned is the store fast path: it returns the line caching block
// a only when this cache already owns it (Modified or Exclusive),
// counting a hit and refreshing LRU exactly as Lookup would on that
// line. In every other case no statistics change; present reports
// whether the block was cached at all (in any state), saving the caller
// a second probe.
func (c *Cache) LookupOwned(a addr.Phys) (l *Meta, present bool) {
	w := c.probeWay(a)
	if w < 0 {
		return nil, false
	}
	l = &c.meta[w]
	if l.State != Modified && l.State != Exclusive {
		return nil, true
	}
	c.hits.Inc()
	si := tagOf(a) & c.setMask
	c.touch(si, w-int(si)*c.assoc)
	return l, true
}

// Probe finds the line caching block a without touching statistics or LRU
// order. Coherence-directory and invalidation paths use it.
func (c *Cache) Probe(a addr.Phys) *Meta {
	if w := c.probeWay(a); w >= 0 {
		return &c.meta[w]
	}
	return nil
}

// Insert allocates a line for block a in the given state, evicting the LRU
// line of the set if necessary. It returns the evicted line metadata (for
// writeback handling) and whether an eviction happened. Inserting a block
// that is already present just updates its state.
func (c *Cache) Insert(a addr.Phys, st State, dirty bool) (victim Line, evicted bool) {
	tag := tagOf(a)
	si := tag & c.setMask
	base := int(si) * c.assoc
	tags := c.tags[base : base+c.assoc]
	// One fused pass: find the block if present, else the victim way —
	// first invalid way in index order, otherwise least-recently-used.
	// Identical outcomes to probing and then scanning separately.
	vi, sawInvalid := -1, false
	for i := range tags {
		if tags[i] == tag {
			l := &c.meta[base+i]
			l.State = st
			l.Dirty = l.Dirty || dirty
			c.touch(si, i)
			return Line{}, false
		}
		if !sawInvalid && tags[i] == invalidTag {
			vi, sawInvalid = i, true
		}
	}
	if !sawInvalid {
		vi = c.lruWay(si)
	}
	if tags[vi] != invalidTag {
		victim, evicted = Line{Tag: tags[vi], Meta: c.meta[base+vi]}, true
		c.evictions.Inc()
		if victim.Dirty {
			c.dirtyEvictions.Inc()
		}
	}
	tags[vi] = tag
	c.touch(si, vi)
	c.meta[base+vi] = Meta{State: st, Dirty: dirty}
	return victim, evicted
}

// Invalidate removes block a if present, returning the removed line
// metadata (so the caller can decide about writeback) and whether it was
// present.
func (c *Cache) Invalidate(a addr.Phys) (Line, bool) {
	if w := c.probeWay(a); w >= 0 {
		old := Line{Tag: c.tags[w], Meta: c.meta[w]}
		c.tags[w] = invalidTag
		return old, true
	}
	return Line{}, false
}

// InvalidatePage removes all 64 blocks of page p, returning the lines that
// were present. Shred commands use this (paper Figure 6, step 2).
func (c *Cache) InvalidatePage(p addr.PageNum) []Line {
	var out []Line
	for i := 0; i < addr.BlocksPerPage; i++ {
		if l, ok := c.Invalidate(p.BlockAddr(i)); ok {
			out = append(out, l)
		}
	}
	return out
}

// InvalidatePageCount removes all 64 blocks of page p like InvalidatePage
// but returns only how many were present, without allocating. The shred
// path uses it: invalidated contents are dead, only the message count
// matters for timing.
func (c *Cache) InvalidatePageCount(p addr.PageNum) int {
	const pageShift = addr.PageShift - addr.BlockShift
	n := 0
	if len(c.tags) <= addr.BlocksPerPage*c.assoc {
		// The store is smaller than the page's probe footprint (64 set
		// scans): one linear sweep over every way is cheaper and removes
		// exactly the same lines. invalidTag>>pageShift can never equal a
		// real page number, so no validity test is needed.
		pn := uint64(p)
		for i := range c.tags {
			if c.tags[i]>>pageShift == pn {
				c.tags[i] = invalidTag
				n++
			}
		}
		return n
	}
	tag0 := uint64(p) << pageShift
	for b := 0; b < addr.BlocksPerPage; b++ {
		tag := tag0 + uint64(b)
		base := int(tag&c.setMask) * c.assoc
		tags := c.tags[base : base+c.assoc]
		for i := range tags {
			if tags[i] == tag {
				tags[i] = invalidTag
				n++
				break
			}
		}
	}
	return n
}

// FlushAll invalidates every line, returning the dirty ones (their
// addresses are recoverable via Line.Addr). Used to model crashes and
// explicit cache flushes. Recency order is left as it is: every way is
// refilled, and so touched, before it can be the LRU victim again, so
// ranks older than the flush never decide an eviction.
func (c *Cache) FlushAll() []Line {
	var dirty []Line
	for i := range c.tags {
		if c.tags[i] != invalidTag && c.meta[i].Dirty {
			dirty = append(dirty, Line{Tag: c.tags[i], Meta: c.meta[i]})
		}
		c.tags[i] = invalidTag
	}
	return dirty
}

// ForEachLine calls fn with the block address and metadata of every
// valid line, in set order. Invariant sweeps use it; it touches neither
// statistics nor LRU state.
func (c *Cache) ForEachLine(fn func(a addr.Phys, m *Meta)) {
	for i, tag := range c.tags {
		if tag != invalidTag {
			fn(addr.Phys(tag)<<addr.BlockShift, &c.meta[i])
		}
	}
}

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits.Value() }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses.Value() }

// Evictions returns the total evictions.
func (c *Cache) Evictions() uint64 { return c.evictions.Value() }

// DirtyEvictions returns evictions of dirty lines.
func (c *Cache) DirtyEvictions() uint64 { return c.dirtyEvictions.Value() }

// MissRate returns misses/(hits+misses), or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	tot := c.hits.Value() + c.misses.Value()
	if tot == 0 {
		return 0
	}
	return float64(c.misses.Value()) / float64(tot)
}

// ResetStats clears access statistics without disturbing contents.
func (c *Cache) ResetStats() {
	c.hits.Reset()
	c.misses.Reset()
	c.evictions.Reset()
	c.dirtyEvictions.Reset()
}

// StatsSet exposes the cache statistics under its configured name.
func (c *Cache) StatsSet() *stats.Set {
	s := stats.NewSet(c.cfg.Name)
	s.RegisterCounter("hits", &c.hits)
	s.RegisterCounter("misses", &c.misses)
	s.RegisterCounter("evictions", &c.evictions)
	s.RegisterCounter("dirty_evictions", &c.dirtyEvictions)
	s.RegisterFunc("miss_rate", c.MissRate)
	return s
}
