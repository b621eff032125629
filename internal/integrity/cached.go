package integrity

import (
	"crypto/sha256"
	"slices"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// DefaultDirtyCacheNodes is the dirty-subtree cache capacity used when
// Config.DirtyCacheNodes is zero: 1024 pending leaves is 32KB of on-chip
// hash state (the modeled hardware parks 32-byte leaf hashes), in line
// with the Bonsai cached-levels SRAM budget.
const DefaultDirtyCacheNodes = 1024

// CachedTree is the lazy engine (Streamlining Integrity Tree Updates,
// PAPERS.md): counter updates do NOT climb to the root. Instead the new
// leaf is parked in a bounded on-chip dirty-subtree cache and the
// ancestor path is recomputed later — per page when that page's counters
// are written back to the persistence domain, or as one coalesced batch
// at persist barriers (mc.Flush, crash cuts). Writes that hit the same
// counter block repeatedly — the common case, since a 64B counter block
// covers a page's 64 cache lines — collapse into a single deferred path
// update, and a barrier over many dirty leaves shares every common
// ancestor rehash instead of repeating it per leaf.
//
// Crash-persist ordering: the dirty cache is modeled as on-chip SRAM in
// the same ADR/persist domain as the root register, so a power cut
// drains it (the controller calls PersistBarrier before the counter
// cache's own crash handling). After any barrier the root register is
// bit-identical to the eager engine's over the same update history,
// which is what makes the reboot-time replay audit detect stale counters
// at exactly the same points.
//
// Modeled versus host hashing: the modeled hardware hashes the leaf on
// every update, so Update charges HashLatency and one hash_op each time.
// The simulator itself defers that digest. The dirty cache holds the
// encoded counter block, and the host computes its SHA-256 once, when
// the leaf is propagated or a verification misses the cache. A pending
// leaf rewritten 64 times by a page clear is hashed once, not 64 times.
// Pending-hit verifications compare blocks directly: two blocks are
// equal exactly when their digests are, so every verdict, root, counter
// and event is the same as hashing on each update.
type CachedTree struct {
	store
	cap   int                                   // dirty-cache capacity in leaves
	dirty map[uint64][ctr.CounterBlockSize]byte // pending leaf blocks, not yet hashed or propagated
	// leafBuf is the reusable leaf list Persisted and PersistBarrier
	// hand to propagate, so a barrier over materialised nodes does not
	// allocate.
	leafBuf []uint64

	updates, verifies stats.Counter
	hashOps           stats.Counter
	verifyHits        stats.Counter // verifies satisfied by the dirty cache
	barriers          stats.Counter // propagation batches (per-page + barrier)
	flushHashes       stats.Counter // hash ops spent in propagation

	bus *obs.Bus
}

// NewCachedTree creates an empty lazy tree.
func NewCachedTree(cfg Config) *CachedTree {
	if cfg.DirtyCacheNodes <= 0 {
		cfg.DirtyCacheNodes = DefaultDirtyCacheNodes
	}
	return &CachedTree{
		store: newStore(cfg),
		cap:   cfg.DirtyCacheNodes,
		dirty: make(map[uint64][ctr.CounterBlockSize]byte, cfg.DirtyCacheNodes),
	}
}

// SetBus attaches the observability event bus (nil disables).
func (t *CachedTree) SetBus(b *obs.Bus) { t.bus = b }

// Update absorbs page p's changed counter block into the dirty cache:
// one modeled leaf hash now (its digest is computed by the host only at
// propagation), ancestor recomputation deferred. A full cache
// forces a coalescing propagation first, so the pending set stays within
// the modeled on-chip SRAM budget.
func (t *CachedTree) Update(p addr.PageNum, block [ctr.CounterBlockSize]byte) clock.Cycles {
	t.updates.Inc()
	t.bus.Emit(obs.EvMerkleUpdate, uint64(p.Addr()), 1)
	idx := uint64(p)
	if _, pending := t.dirty[idx]; !pending && len(t.dirty) >= t.cap {
		t.PersistBarrier()
	}
	t.dirty[idx] = block
	t.hashOps.Inc()
	return t.cfg.HashLatency
}

// Verify checks block against the engine's authenticated state. A leaf
// with a pending update is authenticated directly against the on-chip
// dirty cache — one hash, no tree walk (the short-circuit at the first
// cached node). Otherwise the walk climbs the Bonsai path exactly like
// the eager engine.
func (t *CachedTree) Verify(p addr.PageNum, block [ctr.CounterBlockSize]byte) (bool, clock.Cycles) {
	t.verifies.Inc()
	idx := uint64(p)
	if want, ok := t.dirty[idx]; ok {
		t.verifyHits.Inc()
		t.bus.Emit(obs.EvMerkleVerify, uint64(p.Addr()), 1)
		t.hashOps.Inc()
		return block == want, t.cfg.HashLatency
	}
	path := t.cfg.verifyPath()
	t.bus.Emit(obs.EvMerkleVerify, uint64(p.Addr()), uint64(path))
	levels := path - 1
	h := t.walkUp(idx, sha256.Sum256(block[:]), levels, false)
	t.hashOps.Add(uint64(path))
	return h == t.node(levels, idx>>uint(levels)), t.cfg.verifyCost()
}

// ConsistentWith reports whether block matches the engine's current
// authenticated state for page p — the pending dirty entry if one
// exists, the full path against the root register otherwise. Statistics-
// neutral, like the eager engine's.
func (t *CachedTree) ConsistentWith(p addr.PageNum, block [ctr.CounterBlockSize]byte) bool {
	idx := uint64(p)
	if want, ok := t.dirty[idx]; ok {
		return block == want
	}
	return t.walkUp(idx, sha256.Sum256(block[:]), t.cfg.Depth, false) == t.root
}

// Authenticate is ConsistentWith with a typed *ReplayError on mismatch.
func (t *CachedTree) Authenticate(p addr.PageNum, block [ctr.CounterBlockSize]byte) error {
	return authenticate(t, p, block)
}

// Persisted propagates page p's pending update, if any: the counter
// cache wrote p's block to the persistence domain, so the root register
// must cover it before the write is considered durable.
func (t *CachedTree) Persisted(p addr.PageNum) {
	idx := uint64(p)
	if _, ok := t.dirty[idx]; !ok {
		return
	}
	t.leafBuf = append(t.leafBuf[:0], idx)
	t.propagate(t.leafBuf)
}

// PersistBarrier propagates every pending update as one coalesced batch.
// The controller runs it at machine-wide persist points — mc.Flush and
// crash cuts — before the counter cache's own flush, so the per-page
// writebacks that follow find nothing pending.
func (t *CachedTree) PersistBarrier() {
	if len(t.dirty) == 0 {
		return
	}
	leaves := t.leafBuf[:0]
	for idx := range t.dirty {
		leaves = append(leaves, idx)
	}
	slices.Sort(leaves)
	t.leafBuf = leaves
	t.propagate(leaves)
}

// propagate hashes and installs the pending leaf blocks for `leaves`
// (sorted ascending; the slice is reused as scratch) and rehashes their
// ancestor closure level by level. Shared parents are computed once: the
// frontier of touched indices is deduped as it climbs, which is where
// batching beats per-update eagerness.
func (t *CachedTree) propagate(leaves []uint64) {
	t.barriers.Inc()
	for _, idx := range leaves {
		blk := t.dirty[idx]
		t.nodes[0][idx] = sha256.Sum256(blk[:])
		delete(t.dirty, idx)
	}
	frontier := leaves
	for l := 0; l < t.cfg.Depth; l++ {
		next := frontier[:0]
		var last uint64
		for i, idx := range frontier {
			parent := idx >> 1
			if i > 0 && parent == last {
				continue
			}
			last = parent
			t.nodes[l+1][parent] = hashPair(t.node(l, parent<<1), t.node(l, parent<<1|1))
			next = append(next, parent)
		}
		frontier = next
		ops := uint64(len(frontier))
		t.hashOps.Add(ops)
		t.flushHashes.Add(ops)
		t.bus.Emit(obs.EvMerkleFlush, uint64(l+1), ops)
	}
	t.root = t.nodes[t.cfg.Depth][0]
}

// VerifyCost returns the modeled latency of one (non-short-circuited)
// verification.
func (t *CachedTree) VerifyCost() clock.Cycles { return t.cfg.verifyCost() }

// HashOps returns the number of hash-unit operations performed.
func (t *CachedTree) HashOps() uint64 { return t.hashOps.Value() }

// ResetStats clears the engine's statistics.
func (t *CachedTree) ResetStats() {
	t.updates.Reset()
	t.verifies.Reset()
	t.hashOps.Reset()
	t.verifyHits.Reset()
	t.barriers.Reset()
	t.flushHashes.Reset()
}

// StatsSet exposes integrity-engine statistics.
func (t *CachedTree) StatsSet() *stats.Set {
	s := stats.NewSet("merkle")
	s.RegisterCounter("updates", &t.updates)
	s.RegisterCounter("verifies", &t.verifies)
	s.RegisterCounter("hash_ops", &t.hashOps)
	s.RegisterCounter("verify_hits", &t.verifyHits)
	s.RegisterCounter("flushes", &t.barriers)
	s.RegisterCounter("flush_hashes", &t.flushHashes)
	return s
}
