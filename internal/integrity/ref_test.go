package integrity

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// refCachedTree is the lazy engine as it was before pending leaves were
// kept as encoded blocks: it hashes every updated counter block on the
// spot and parks the digest. It is the reference the differential test
// checks CachedTree against.
type refCachedTree struct {
	store
	cap   int
	dirty map[uint64]Hash

	updates, verifies stats.Counter
	hashOps           stats.Counter
	verifyHits        stats.Counter
	barriers          stats.Counter
	flushHashes       stats.Counter

	bus *obs.Bus
}

func newRefCachedTree(cfg Config) *refCachedTree {
	if cfg.DirtyCacheNodes <= 0 {
		cfg.DirtyCacheNodes = DefaultDirtyCacheNodes
	}
	return &refCachedTree{store: newStore(cfg), cap: cfg.DirtyCacheNodes, dirty: make(map[uint64]Hash)}
}

func (t *refCachedTree) Update(p addr.PageNum, block [ctr.CounterBlockSize]byte) clock.Cycles {
	t.updates.Inc()
	t.bus.Emit(obs.EvMerkleUpdate, uint64(p.Addr()), 1)
	idx := uint64(p)
	if _, pending := t.dirty[idx]; !pending && len(t.dirty) >= t.cap {
		t.PersistBarrier()
	}
	t.dirty[idx] = sha256.Sum256(block[:])
	t.hashOps.Inc()
	return t.cfg.HashLatency
}

func (t *refCachedTree) Verify(p addr.PageNum, block [ctr.CounterBlockSize]byte) (bool, clock.Cycles) {
	t.verifies.Inc()
	idx := uint64(p)
	h := sha256.Sum256(block[:])
	if want, ok := t.dirty[idx]; ok {
		t.verifyHits.Inc()
		t.bus.Emit(obs.EvMerkleVerify, uint64(p.Addr()), 1)
		t.hashOps.Inc()
		return h == want, t.cfg.HashLatency
	}
	path := t.cfg.verifyPath()
	t.bus.Emit(obs.EvMerkleVerify, uint64(p.Addr()), uint64(path))
	levels := path - 1
	h = t.walkUp(idx, h, levels, false)
	t.hashOps.Add(uint64(path))
	return h == t.node(levels, idx>>uint(levels)), t.cfg.verifyCost()
}

func (t *refCachedTree) ConsistentWith(p addr.PageNum, block [ctr.CounterBlockSize]byte) bool {
	idx := uint64(p)
	h := sha256.Sum256(block[:])
	if want, ok := t.dirty[idx]; ok {
		return h == want
	}
	return t.walkUp(idx, h, t.cfg.Depth, false) == t.root
}

func (t *refCachedTree) Authenticate(p addr.PageNum, block [ctr.CounterBlockSize]byte) error {
	return authenticate(t, p, block)
}

func (t *refCachedTree) Persisted(p addr.PageNum) {
	idx := uint64(p)
	if _, ok := t.dirty[idx]; !ok {
		return
	}
	t.propagate([]uint64{idx})
}

func (t *refCachedTree) PersistBarrier() {
	if len(t.dirty) == 0 {
		return
	}
	leaves := make([]uint64, 0, len(t.dirty))
	for idx := range t.dirty {
		leaves = append(leaves, idx)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	t.propagate(leaves)
}

func (t *refCachedTree) propagate(leaves []uint64) {
	t.barriers.Inc()
	for _, idx := range leaves {
		t.nodes[0][idx] = t.dirty[idx]
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

func (t *refCachedTree) StatsSet() *stats.Set {
	s := stats.NewSet("merkle")
	s.RegisterCounter("updates", &t.updates)
	s.RegisterCounter("verifies", &t.verifies)
	s.RegisterCounter("hash_ops", &t.hashOps)
	s.RegisterCounter("verify_hits", &t.verifyHits)
	s.RegisterCounter("flushes", &t.barriers)
	s.RegisterCounter("flush_hashes", &t.flushHashes)
	return s
}

// TestCachedTreeMatchesHashOnUpdateReference drives CachedTree and the
// hash-on-update reference through the same seeded scripts — bursts of
// updates to a few hot pages, Verify/ConsistentWith/Authenticate with
// the current, a tampered and a stale block on both pending and
// propagated leaves, Persisted, PersistBarrier, and dirty-cache overflow
// at a small capacity — and after every op requires the same root,
// verdicts, latencies, every "merkle" counter, and the same event
// stream.
func TestCachedTreeMatchesHashOnUpdateReference(t *testing.T) {
	for _, dirtyCap := range []int{4, 16, 0} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", dirtyCap, seed), func(t *testing.T) {
				diffCachedAgainstRef(t, dirtyCap, seed)
			})
		}
	}
}

func diffCachedAgainstRef(t *testing.T, dirtyCap int, seed int64) {
	t.Helper()
	cfg := Config{Depth: 8, CachedLevels: 3, HashLatency: 40, Engine: EngineCached, DirtyCacheNodes: dirtyCap}
	got, ref := NewCachedTree(cfg), newRefCachedTree(cfg)
	// A ring larger than any one op's burst (a barrier emits Depth
	// events) lets each op's events be compared in full.
	gotBus, refBus := obs.NewBus(obs.Config{RingCap: 64}), obs.NewBus(obs.Config{RingCap: 64})
	got.SetBus(gotBus)
	ref.bus = refBus
	gotSet, refSet := got.StatsSet(), ref.StatsSet()

	rng := rand.New(rand.NewSource(seed))
	current := map[addr.PageNum][ctr.CounterBlockSize]byte{}
	previous := map[addr.PageNum][ctr.CounterBlockSize]byte{}
	randBlock := func() [ctr.CounterBlockSize]byte {
		var b [ctr.CounterBlockSize]byte
		rng.Read(b[:])
		return b
	}
	// Candidate blocks for a page: its current block, a one-bit tamper of
	// it, the block it held before its last update, or a fresh one.
	probe := func(p addr.PageNum) (string, [ctr.CounterBlockSize]byte) {
		cur, ok := current[p]
		switch k := rng.Intn(4); {
		case k == 0 && ok:
			return "current", cur
		case k == 1 && ok:
			cur[rng.Intn(len(cur))] ^= 1 << uint(rng.Intn(8))
			return "tampered", cur
		case k == 2:
			if prev, ok := previous[p]; ok {
				return "stale", prev
			}
		}
		return "fresh", randBlock()
	}

	for step := 0; step < 4000; step++ {
		// Hot pages 0..7 take most traffic; the rest spread over the tree.
		p := addr.PageNum(rng.Intn(8))
		if rng.Intn(4) == 0 {
			p = addr.PageNum(rng.Intn(1 << cfg.Depth))
		}
		var op string
		switch r := rng.Intn(20); {
		case r < 9:
			op = "update"
			burst := 1 + rng.Intn(64)
			for i := 0; i < burst; i++ {
				blk := randBlock()
				if cur, ok := current[p]; ok {
					previous[p] = cur
				}
				current[p] = blk
				if lg, lr := got.Update(p, blk), ref.Update(p, blk); lg != lr {
					t.Fatalf("step %d: Update latency %d, reference %d", step, lg, lr)
				}
			}
		case r < 13:
			kind, blk := probe(p)
			op = "verify/" + kind
			okG, latG := got.Verify(p, blk)
			okR, latR := ref.Verify(p, blk)
			if okG != okR || latG != latR {
				t.Fatalf("step %d: Verify(%s) = %v,%d, reference %v,%d", step, kind, okG, latG, okR, latR)
			}
		case r < 15:
			kind, blk := probe(p)
			op = "consistent/" + kind
			if g, r := got.ConsistentWith(p, blk), ref.ConsistentWith(p, blk); g != r {
				t.Fatalf("step %d: ConsistentWith(%s) = %v, reference %v", step, kind, g, r)
			}
			errG, errR := got.Authenticate(p, blk), ref.Authenticate(p, blk)
			if fmt.Sprint(errG) != fmt.Sprint(errR) {
				t.Fatalf("step %d: Authenticate(%s) = %v, reference %v", step, kind, errG, errR)
			}
		case r < 18:
			op = "persisted"
			got.Persisted(p)
			ref.Persisted(p)
		default:
			op = "barrier"
			got.PersistBarrier()
			ref.PersistBarrier()
		}

		if got.Root() != ref.Root() {
			t.Fatalf("step %d (%s): roots diverge", step, op)
		}
		if len(got.dirty) != len(ref.dirty) {
			t.Fatalf("step %d (%s): %d pending leaves, reference %d", step, op, len(got.dirty), len(ref.dirty))
		}
		for _, name := range refSet.Names() {
			g, _ := gotSet.Get(name)
			r, _ := refSet.Get(name)
			if g != r {
				t.Fatalf("step %d (%s): merkle.%s = %v, reference %v", step, op, name, g, r)
			}
		}
		if gotBus.Seq() != refBus.Seq() || !slices.Equal(gotBus.Events(), refBus.Events()) {
			t.Fatalf("step %d (%s): event streams diverge", step, op)
		}
	}
	if !slices.Equal(gotSet.Names(), refSet.Names()) {
		t.Fatalf("stat names %v, reference %v", gotSet.Names(), refSet.Names())
	}
}
