// Package hier models the processor's cache hierarchy: per-core private
// L1/L2 caches, shared L3/L4 caches (Table 1: 64KB/512KB/8MB/64MB, all
// 8-way with 64B blocks), a directory-based MESI coherence protocol over
// the private caches, and the paths that bulk zeroing needs — non-temporal
// stores that bypass the hierarchy, and whole-page invalidation for shred
// commands (Figure 6, step 2).
//
// The hierarchy is inclusive: every block in a private cache is also in
// L3 and L4. Timing is additive lookup latency down the hierarchy; an LLC
// (L4) miss is serviced by the secure memory controller.
package hier

import (
	"fmt"
	"math/bits"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/clock"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// Config describes the hierarchy.
type Config struct {
	Cores int
	L1    cache.Config // per core
	L2    cache.Config // per core
	L3    cache.Config // shared
	L4    cache.Config // shared

	// CoherencePenalty is charged for each invalidation or intervention
	// round trip between private caches (through the shared level).
	CoherencePenalty clock.Cycles

	// NTStoreCycles is the per-block core occupancy of a non-temporal
	// store: the store retires once the block is handed to the write
	// queue, so the core sees bus-bandwidth occupancy, not NVM write
	// latency. Table 1's 12.8GB/s × 2 channels gives ~5 cycles per 64B.
	NTStoreCycles clock.Cycles
}

// MaxCores is the most cores a hierarchy supports: the directory keeps
// one sharer bit per core in a uint64.
const MaxCores = 64

// Table1Config returns the paper's Table 1 hierarchy for n cores.
func Table1Config(n int) Config {
	return Config{
		Cores:            n,
		L1:               cache.Config{Name: "l1", Size: 64 << 10, Assoc: 8, HitLatency: 2},
		L2:               cache.Config{Name: "l2", Size: 512 << 10, Assoc: 8, HitLatency: 8},
		L3:               cache.Config{Name: "l3", Size: 8 << 20, Assoc: 8, HitLatency: 25},
		L4:               cache.Config{Name: "l4", Size: 64 << 20, Assoc: 8, HitLatency: 35},
		CoherencePenalty: 25,
		NTStoreCycles:    5,
	}
}

type dirEntry struct {
	sharers  uint64 // bit per core: block resident in that core's private caches
	owner    int    // valid when modified
	modified bool
}

// dirPage holds the directory entries for one page's 64 blocks. Storing
// entries page-chunked (one map lookup per page instead of per block,
// plus a last-page cache) replaces the former flat map[addr.Phys] layout;
// the tracked state per block is unchanged.
type dirPage struct {
	present uint64 // bit per block: entry exists
	e       [addr.BlocksPerPage]dirEntry
}

// denseDirPages bounds the directly indexed part of the directory: page
// numbers below it (the kernel's frame allocators hand out small frame
// numbers from zero) live in a slice grown on demand; anything beyond —
// which no current configuration produces — falls back to a map.
const denseDirPages = 1 << 22 // 16GB of 4KB frames

// directory is the two-level MESI directory: page number -> 64-entry
// chunk. The page table is a dense slice indexed by page number (one
// bounds check instead of a map probe on every coherence consult), with
// a map spillover for out-of-range pages.
type directory struct {
	dense  []*dirPage
	sparse map[addr.PageNum]*dirPage // pages >= denseDirPages only
}

func newDirectory() directory {
	return directory{sparse: make(map[addr.PageNum]*dirPage)}
}

func (d *directory) page(p addr.PageNum) *dirPage {
	if uint64(p) < uint64(len(d.dense)) {
		return d.dense[p]
	}
	if uint64(p) < denseDirPages {
		return nil
	}
	return d.sparse[p]
}

// lookup returns the entry for block a if one exists.
func (d *directory) lookup(a addr.Phys) (*dirEntry, bool) {
	dp := d.page(a.Page())
	if dp == nil {
		return nil, false
	}
	bi := a.BlockIndex()
	if dp.present&(1<<bi) == 0 {
		return nil, false
	}
	return &dp.e[bi], true
}

// holders returns block a's sharer mask: the cores whose private caches
// hold a. CheckInvariants pins the mask to the actual holders, so
// back-invalidation visits only these cores (the directory doubles as a
// snoop filter).
func (d *directory) holders(a addr.Phys) uint64 {
	if de, ok := d.lookup(a); ok {
		return de.sharers
	}
	return 0
}

// pageHolders returns the union of the sharer masks of page p's blocks.
func (d *directory) pageHolders(p addr.PageNum) uint64 {
	dp := d.page(p)
	if dp == nil {
		return 0
	}
	var mask uint64
	for rem := dp.present; rem != 0; rem &= rem - 1 {
		mask |= dp.e[bits.TrailingZeros64(rem)].sharers
	}
	return mask
}

// entry returns the entry for block a, creating it if needed.
func (d *directory) entry(a addr.Phys) *dirEntry {
	p := a.Page()
	dp := d.page(p)
	if dp == nil {
		dp = &dirPage{}
		if uint64(p) < denseDirPages {
			for uint64(p) >= uint64(len(d.dense)) {
				d.dense = append(d.dense, nil)
			}
			d.dense[p] = dp
		} else {
			d.sparse[p] = dp
		}
	}
	bi := a.BlockIndex()
	if dp.present&(1<<bi) == 0 {
		dp.present |= 1 << bi
		dp.e[bi] = dirEntry{owner: -1}
	}
	return &dp.e[bi]
}

// remove drops block a's entry, freeing the page chunk when it empties.
func (d *directory) remove(a addr.Phys) {
	p := a.Page()
	dp := d.page(p)
	if dp == nil {
		return
	}
	bi := a.BlockIndex()
	if dp.present&(1<<bi) == 0 {
		return
	}
	dp.present &^= 1 << bi
	dp.e[bi] = dirEntry{}
}

// removePage drops every entry of page p at once (the shred path). The
// chunk itself stays allocated for reuse: entry() re-initializes a slot
// whenever its present bit is clear, so clearing the bitmask is a full
// logical removal without feeding the allocator.
func (d *directory) removePage(p addr.PageNum) {
	if dp := d.page(p); dp != nil {
		dp.present = 0
	}
}

// reset empties the directory, retaining chunk allocations.
func (d *directory) reset() {
	for _, dp := range d.dense {
		if dp != nil {
			dp.present = 0
		}
	}
	for _, dp := range d.sparse {
		dp.present = 0
	}
}

// forEach calls fn for every existing entry. Dense pages come first in
// ascending page order, then spillover pages in Go map order; callers
// needing full determinism must sort.
func (d *directory) forEach(fn func(a addr.Phys, de *dirEntry)) {
	visit := func(p addr.PageNum, dp *dirPage) {
		rem := dp.present
		for rem != 0 {
			bi := bits.TrailingZeros64(rem)
			rem &= rem - 1
			fn(p.BlockAddr(bi), &dp.e[bi])
		}
	}
	for i, dp := range d.dense {
		if dp != nil {
			visit(addr.PageNum(i), dp)
		}
	}
	for p, dp := range d.sparse {
		visit(p, dp)
	}
}

// Hierarchy is the full multi-core cache system in front of the memory
// controller.
type Hierarchy struct {
	cfg Config
	l1  []*cache.Cache
	l2  []*cache.Cache
	l3  *cache.Cache
	l4  *cache.Cache
	dir directory
	mc  *memctrl.Controller

	invalidations stats.Counter // coherence invalidation messages
	interventions stats.Counter // dirty-owner interventions
	llcMisses     stats.Counter
	pageInvals    stats.Counter // shred-driven page invalidations

	bus *obs.Bus // nil unless observability is enabled
}

// SetBus attaches the observability event bus (nil disables).
func (h *Hierarchy) SetBus(b *obs.Bus) { h.bus = b }

// New creates a hierarchy in front of mc.
func New(cfg Config, mc *memctrl.Controller) *Hierarchy {
	if cfg.Cores <= 0 {
		panic("hier: need at least one core")
	}
	if cfg.Cores > MaxCores {
		panic("hier: directory bitmask supports at most 64 cores")
	}
	h := &Hierarchy{
		cfg: cfg,
		l3:  cache.New(cfg.L3),
		l4:  cache.New(cfg.L4),
		dir: newDirectory(),
		mc:  mc,
	}
	for i := 0; i < cfg.Cores; i++ {
		l1cfg, l2cfg := cfg.L1, cfg.L2
		l1cfg.Name = fmt.Sprintf("l1.%d", i)
		l2cfg.Name = fmt.Sprintf("l2.%d", i)
		h.l1 = append(h.l1, cache.New(l1cfg))
		h.l2 = append(h.l2, cache.New(l2cfg))
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Controller returns the memory controller behind the hierarchy.
func (h *Hierarchy) Controller() *memctrl.Controller { return h.mc }

func (h *Hierarchy) entry(a addr.Phys) *dirEntry {
	return h.dir.entry(a)
}

// Read services a load from the given core for the block containing a,
// returning the access latency the core observes.
func (h *Hierarchy) Read(core int, a addr.Phys) clock.Cycles {
	a = a.Block()
	lat := h.cfg.L1.HitLatency
	if h.l1[core].LookupHit(a) {
		return lat
	}
	lat += h.cfg.L2.HitLatency
	if l := h.l2[core].Lookup(a); l != nil {
		h.insertL1(core, a, l.State, false)
		return lat
	}
	// Private miss: consult the directory for a dirty remote copy, and
	// downgrade any remote Exclusive copy to Shared (it is no longer the
	// sole copy once this read completes).
	state := cache.Shared
	if de, ok := h.dir.lookup(a); ok {
		if de.modified && de.owner != core {
			h.intervene(a, de)
			lat += h.cfg.CoherencePenalty
		}
		for c := 0; c < h.cfg.Cores; c++ {
			if c == core || de.sharers&(1<<c) == 0 {
				continue
			}
			if l := h.l1[c].Probe(a); l != nil && l.State == cache.Exclusive {
				l.State = cache.Shared
			}
			if l := h.l2[c].Probe(a); l != nil && l.State == cache.Exclusive {
				l.State = cache.Shared
			}
		}
	}
	lat += h.cfg.L3.HitLatency
	if !h.l3.LookupHit(a) {
		lat += h.cfg.L4.HitLatency
		if !h.l4.LookupHit(a) {
			h.llcMisses.Inc()
			lat += h.mc.ReadBlock(a, nil)
			h.insertL4(a, false)
		}
		h.insertL3(a, false)
	}
	de := h.entry(a)
	if de.sharers == 0 {
		state = cache.Exclusive
	}
	de.sharers |= 1 << core
	h.insertPrivate(core, a, state, false)
	return lat
}

// Write services a store from the given core for the block containing a.
// The architectural data is assumed already applied to the functional
// image by the caller; the hierarchy models allocation, coherence and
// dirtiness.
func (h *Hierarchy) Write(core int, a addr.Phys) clock.Cycles {
	a = a.Block()
	lat := h.cfg.L1.HitLatency
	l1Line, l1Present := h.l1[core].LookupOwned(a)
	if l1Line != nil {
		l1Line.State = cache.Modified
		l1Line.Dirty = true
		de := h.entry(a)
		de.modified, de.owner, de.sharers = true, core, 1<<core
		return lat
	}

	// Need ownership: invalidate all other private copies.
	inheritDirty := false
	if de, ok := h.dir.lookup(a); ok {
		for c := 0; c < h.cfg.Cores; c++ {
			if c == core || de.sharers&(1<<c) == 0 {
				continue
			}
			d1 := h.discardPrivate(c, a)
			if de.modified && de.owner == c {
				// Ownership migrates dirty: the remote M data is the
				// architectural content and must not be dropped.
				inheritDirty = true
			}
			inheritDirty = inheritDirty || d1
			de.sharers &^= 1 << c
			h.invalidations.Inc()
			lat += h.cfg.CoherencePenalty
		}
	}

	// The discard loop above only touches other cores' caches, so the
	// presence result from the owned-lookup is still current.
	if l1Present || h.l2[core].Probe(a) != nil {
		// Upgrade in place.
		h.insertPrivate(core, a, cache.Modified, true)
	} else {
		// Write-allocate: fetch the block, then modify.
		lat += h.cfg.L2.HitLatency + h.cfg.L3.HitLatency
		if !h.l3.LookupHit(a) {
			lat += h.cfg.L4.HitLatency
			if !h.l4.LookupHit(a) {
				h.llcMisses.Inc()
				lat += h.mc.ReadBlock(a, nil)
				h.insertL4(a, false)
			}
			h.insertL3(a, false)
		}
		h.insertPrivate(core, a, cache.Modified, true)
	}
	if inheritDirty {
		if l := h.l1[core].Probe(a); l != nil {
			l.Dirty = true
		}
	}
	de := h.entry(a)
	de.modified, de.owner, de.sharers = true, core, 1<<core
	return lat
}

// WriteNonTemporal performs a cache-bypassing store of the whole block at
// a (e.g. movntq zeroing): any cached copies are invalidated — their
// contents are superseded, so nothing is written back — and the block is
// written through the memory controller. The returned latency is the
// core-visible occupancy; the NVM write itself is posted via the write
// queue.
func (h *Hierarchy) WriteNonTemporal(a addr.Phys) clock.Cycles {
	a = a.Block()
	h.discardEverywhere(a)
	h.mc.WriteBlock(a)
	return h.cfg.NTStoreCycles
}

// ShredInvalidate removes every block of page p from every cache level
// without writing anything back (the contents are dead once the page is
// shredded). It returns the number of invalidation messages, which the
// kernel's shred path charges time for.
func (h *Hierarchy) ShredInvalidate(p addr.PageNum) int {
	h.pageInvals.Inc()
	msgs := 0
	for m := h.dir.pageHolders(p); m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		msgs += h.l1[c].InvalidatePageCount(p)
		msgs += h.l2[c].InvalidatePageCount(p)
	}
	h.l3.InvalidatePageCount(p)
	h.l4.InvalidatePageCount(p)
	h.dir.removePage(p)
	h.bus.Emit(obs.EvPageInval, uint64(p.Addr()), uint64(msgs))
	return msgs
}

// intervene downgrades a remote dirty owner to Shared, pushing its data
// into the shared levels (marked dirty there).
func (h *Hierarchy) intervene(a addr.Phys, de *dirEntry) {
	h.interventions.Inc()
	c := de.owner
	if c >= 0 {
		if l := h.l1[c].Probe(a); l != nil {
			l.State = cache.Shared
			l.Dirty = false
		}
		if l := h.l2[c].Probe(a); l != nil {
			l.State = cache.Shared
			l.Dirty = false
		}
	}
	// The dirty data now lives in L3 (inclusive), marked dirty so it is
	// eventually written back.
	h.insertL3(a, true)
	h.insertL4(a, false)
	de.modified = false
	de.owner = -1
}

// discardHolders invalidates a from the private caches of every core the
// directory lists as holding it, returning whether a dirty copy was
// discarded. It leaves the directory entry to the caller.
func (h *Hierarchy) discardHolders(a addr.Phys) bool {
	dirty := false
	for m := h.dir.holders(a); m != 0; m &= m - 1 {
		if h.discardPrivate(bits.TrailingZeros64(m), a) {
			dirty = true
		}
	}
	return dirty
}

// discardPrivate invalidates a from core c's private caches, returning
// whether a dirty copy was discarded.
func (h *Hierarchy) discardPrivate(c int, a addr.Phys) bool {
	dirty := false
	if l, ok := h.l1[c].Invalidate(a); ok && l.Dirty {
		dirty = true
	}
	if l, ok := h.l2[c].Invalidate(a); ok && l.Dirty {
		dirty = true
	}
	return dirty
}

func (h *Hierarchy) discardEverywhere(a addr.Phys) {
	h.discardHolders(a)
	h.l3.Invalidate(a)
	h.l4.Invalidate(a)
	h.dir.remove(a)
}

// insertPrivate installs a into core's L2 then L1, handling inclusive
// evictions.
func (h *Hierarchy) insertPrivate(core int, a addr.Phys, st cache.State, dirty bool) {
	if v, ev := h.l2[core].Insert(a, st, dirty); ev {
		h.evictFromL2(core, v)
	}
	h.insertL1(core, a, st, dirty)
}

func (h *Hierarchy) insertL1(core int, a addr.Phys, st cache.State, dirty bool) {
	if v, ev := h.l1[core].Insert(a, st, dirty); ev {
		// L1 victim folds into L2 (inclusive: it must be there).
		if v.Dirty {
			if l := h.l2[core].Probe(v.Addr()); l != nil {
				l.Dirty = true
				// A dirty fold carries ownership: the L1 copy was
				// Modified (possibly via a silent E->M upgrade the L2
				// never saw).
				l.State = cache.Modified
			} else {
				// Inclusion was broken by an L2 eviction that raced
				// ahead; push dirtiness to the shared levels.
				h.insertL3(v.Addr(), true)
			}
		}
	}
}

// evictFromL2 handles an L2 victim: back-invalidate L1 (inclusion),
// propagate dirtiness to L3, update the directory.
func (h *Hierarchy) evictFromL2(core int, v cache.Line) {
	a := v.Addr()
	dirty := v.Dirty
	if l, ok := h.l1[core].Invalidate(a); ok && l.Dirty {
		dirty = true
	}
	if dirty {
		if l := h.l3.Probe(a); l != nil {
			l.Dirty = true
		} else {
			h.insertL3(a, true)
		}
	}
	if de, ok := h.dir.lookup(a); ok {
		de.sharers &^= 1 << core
		if de.owner == core {
			de.modified = false
			de.owner = -1
		}
		if de.sharers == 0 {
			h.dir.remove(a)
		}
	}
}

// insertL3 installs a into L3, handling the victim (back-invalidate the
// private caches, fold dirtiness into L4).
func (h *Hierarchy) insertL3(a addr.Phys, dirty bool) {
	v, ev := h.l3.Insert(a, cache.Shared, dirty)
	if !ev {
		return
	}
	va := v.Addr()
	d := h.discardHolders(va) || v.Dirty
	h.dir.remove(va)
	if d {
		if l := h.l4.Probe(va); l != nil {
			l.Dirty = true
		} else {
			// Inclusion hole: write back directly.
			h.mc.WriteBlock(va)
		}
	}
}

// insertL4 installs a into L4; a dirty victim is written back to NVM.
func (h *Hierarchy) insertL4(a addr.Phys, dirty bool) {
	v, ev := h.l4.Insert(a, cache.Shared, dirty)
	if !ev {
		return
	}
	va := v.Addr()
	// Back-invalidate everything above (inclusion).
	d := h.discardHolders(va) || v.Dirty
	if l, ok := h.l3.Invalidate(va); ok && l.Dirty {
		d = true
	}
	h.dir.remove(va)
	if d {
		h.mc.WriteBlock(va)
	}
}

// FlushPage writes back and invalidates every block of page p (the
// clwb/clflush loop + fence a persistent-memory commit uses). Returns the
// number of dirty blocks written back.
func (h *Hierarchy) FlushPage(p addr.PageNum) int {
	dirty := 0
	for i := 0; i < addr.BlocksPerPage; i++ {
		a := p.BlockAddr(i)
		wasDirty := h.discardHolders(a)
		if l, ok := h.l3.Invalidate(a); ok && l.Dirty {
			wasDirty = true
		}
		if l, ok := h.l4.Invalidate(a); ok && l.Dirty {
			wasDirty = true
		}
		h.dir.remove(a)
		if wasDirty {
			h.mc.WriteBlock(a)
			dirty++
		}
	}
	return dirty
}

// FlushAll writes every dirty block back through the memory controller
// and empties all caches (clean shutdown / explicit wbinvd).
func (h *Hierarchy) FlushAll() {
	seen := make(map[addr.Phys]bool)
	flush := func(lines []cache.Line) {
		for _, l := range lines {
			if !seen[l.Addr()] {
				seen[l.Addr()] = true
				h.mc.WriteBlock(l.Addr())
			}
		}
	}
	for c := 0; c < h.cfg.Cores; c++ {
		flush(h.l1[c].FlushAll())
		flush(h.l2[c].FlushAll())
	}
	flush(h.l3.FlushAll())
	flush(h.l4.FlushAll())
	h.dir.reset()
}

// Crash drops all cache contents without writing anything back, modeling
// sudden power loss: dirty data that never reached the NVM is gone.
func (h *Hierarchy) Crash() {
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].FlushAll()
		h.l2[c].FlushAll()
	}
	h.l3.FlushAll()
	h.l4.FlushAll()
	h.dir.reset()
}

// L1 returns core i's L1 cache (for statistics and tests).
func (h *Hierarchy) L1(i int) *cache.Cache { return h.l1[i] }

// L2 returns core i's L2 cache.
func (h *Hierarchy) L2(i int) *cache.Cache { return h.l2[i] }

// L3 returns the shared L3 cache.
func (h *Hierarchy) L3() *cache.Cache { return h.l3 }

// L4 returns the shared L4 (last-level) cache.
func (h *Hierarchy) L4() *cache.Cache { return h.l4 }

// LLCMisses returns the number of L4 misses serviced by the controller.
func (h *Hierarchy) LLCMisses() uint64 { return h.llcMisses.Value() }

// Invalidations returns coherence invalidation messages sent.
func (h *Hierarchy) Invalidations() uint64 { return h.invalidations.Value() }

// Interventions returns dirty-owner interventions.
func (h *Hierarchy) Interventions() uint64 { return h.interventions.Value() }

// ResetStats clears hierarchy and cache statistics.
func (h *Hierarchy) ResetStats() {
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].ResetStats()
		h.l2[c].ResetStats()
	}
	h.l3.ResetStats()
	h.l4.ResetStats()
	h.invalidations.Reset()
	h.interventions.Reset()
	h.llcMisses.Reset()
	h.pageInvals.Reset()
}

// StatsSet exposes hierarchy-level statistics.
func (h *Hierarchy) StatsSet() *stats.Set {
	s := stats.NewSet("hier")
	s.RegisterCounter("invalidations", &h.invalidations)
	s.RegisterCounter("interventions", &h.interventions)
	s.RegisterCounter("llc_misses", &h.llcMisses)
	s.RegisterCounter("page_invalidations", &h.pageInvals)
	s.RegisterFunc("l3_miss_rate", h.l3.MissRate)
	s.RegisterFunc("l4_miss_rate", h.l4.MissRate)
	return s
}
