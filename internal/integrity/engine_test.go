package integrity

import (
	"math/rand"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/obs"
)

func smallConfig() Config {
	return Config{Depth: 8, CachedLevels: 3, HashLatency: 40}
}

func engines(t *testing.T, cfg Config) map[string]Engine {
	t.Helper()
	eager, cached := cfg, cfg
	eager.Engine = EngineEager
	cached.Engine = EngineCached
	return map[string]Engine{"eager": New(eager), "cached": New(cached)}
}

func TestParseEngineKind(t *testing.T) {
	for _, k := range []EngineKind{EngineEager, EngineCached} {
		got, err := ParseEngineKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, %v", k, got, err)
		}
	}
	if _, err := ParseEngineKind("nope"); err == nil {
		t.Fatal("want error for unknown engine name")
	}
}

func TestFactorySelectsEngine(t *testing.T) {
	if _, ok := New(smallConfig()).(*Tree); !ok {
		t.Fatal("zero-value Engine must build the eager Tree")
	}
	cfg := smallConfig()
	cfg.Engine = EngineCached
	if _, ok := New(cfg).(*CachedTree); !ok {
		t.Fatal("EngineCached must build the CachedTree")
	}
}

// The eager Verify stat must match the modeled Bonsai cost: the walk
// stops at the first cached level, so hash_ops advances by
// Depth-CachedLevels+1 per verification — not Depth+1 (the pre-engine
// overcount this PR fixes).
func TestVerifyHashOpsMatchBonsaiCost(t *testing.T) {
	tr := NewTree(Config{Depth: 24, CachedLevels: 10, HashLatency: 40})
	tr.Update(7, blockWith(1))
	before := tr.HashOps()
	if ok, _ := tr.Verify(7, blockWith(1)); !ok {
		t.Fatal("leaf must verify")
	}
	if got := tr.HashOps() - before; got != 15 {
		t.Fatalf("verify hash_ops = %d, want Depth-CachedLevels+1 = 15", got)
	}
}

// Every engine behavior pair: same update history, a barrier on the
// cached side, then roots must be bit-identical and verification
// verdicts must agree on both fresh and stale blocks.
func TestEngineRootEquivalence(t *testing.T) {
	es := engines(t, smallConfig())
	eager, cached := es["eager"], es["cached"]
	rng := rand.New(rand.NewSource(9))
	blocks := map[addr.PageNum]byte{}
	for i := 0; i < 400; i++ {
		p := addr.PageNum(rng.Intn(64))
		v := byte(rng.Intn(255) + 1)
		blocks[p] = v
		eager.Update(p, blockWith(v))
		cached.Update(p, blockWith(v))
		if rng.Intn(16) == 0 {
			cached.PersistBarrier()
			if eager.Root() != cached.Root() {
				t.Fatalf("roots diverge after barrier at step %d", i)
			}
		}
	}
	cached.PersistBarrier()
	if eager.Root() != cached.Root() {
		t.Fatal("final roots diverge")
	}
	for p, v := range blocks {
		for name, e := range es {
			if ok, _ := e.Verify(p, blockWith(v)); !ok {
				t.Fatalf("%s: current block of page %d must verify", name, p)
			}
			if ok, _ := e.Verify(p, blockWith(v^0xFF)); ok {
				t.Fatalf("%s: forged block of page %d must not verify", name, p)
			}
			if err := e.Authenticate(p, blockWith(v)); err != nil {
				t.Fatalf("%s: authenticate: %v", name, err)
			}
			if err := e.Authenticate(p, blockWith(v^0xFF)); err == nil {
				t.Fatalf("%s: stale block must raise ReplayError", name)
			}
		}
	}
}

// Replay detection equivalence: after a shred-like counter rewrite, both
// engines must reject the pre-shred block the same way, including before
// any explicit barrier on the cached side (the dirty cache is
// authenticated state too).
func TestEngineReplayDetectionEquivalence(t *testing.T) {
	for name, e := range engines(t, smallConfig()) {
		p := addr.PageNum(9)
		e.Update(p, blockWith(6))
		e.Update(p, blockWith(7)) // the shred overwrites the counters
		err := e.Authenticate(p, blockWith(6))
		re, ok := err.(*ReplayError)
		if !ok {
			t.Fatalf("%s: got %v, want *ReplayError", name, err)
		}
		if re.Page != p {
			t.Fatalf("%s: ReplayError page = %v, want %v", name, re.Page, p)
		}
		if err := e.Authenticate(p, blockWith(7)); err != nil {
			t.Fatalf("%s: current block must authenticate: %v", name, err)
		}
	}
}

// Coalescing is the cached engine's point: many updates to few pages
// must cost far fewer hash ops than the eager engine pays, and the
// verify path must short-circuit at the dirty cache.
func TestCachedTreeCoalesces(t *testing.T) {
	cfg := smallConfig()
	eager := NewTree(cfg)
	cfg.Engine = EngineCached
	cached := NewCachedTree(cfg)
	for i := 0; i < 64; i++ {
		p := addr.PageNum(i % 4)
		eager.Update(p, blockWith(byte(i+1)))
		cached.Update(p, blockWith(byte(i+1)))
	}
	// Dirty-cache verify: one hash, no tree walk.
	before := cached.HashOps()
	if ok, lat := cached.Verify(3, blockWith(64)); !ok || lat != cfg.HashLatency {
		t.Fatalf("dirty-hit verify: ok=%v lat=%d, want true, %d", ok, lat, cfg.HashLatency)
	}
	if got := cached.HashOps() - before; got != 1 {
		t.Fatalf("dirty-hit verify hash_ops = %d, want 1", got)
	}
	cached.PersistBarrier()
	if eager.Root() != cached.Root() {
		t.Fatal("roots diverge after coalesced barrier")
	}
	// 64 updates x 9 levels eagerly vs 64 leaf hashes + one 4-leaf batch.
	if cached.HashOps()*3 >= eager.HashOps() {
		t.Fatalf("coalescing too weak: cached %d vs eager %d hash ops",
			cached.HashOps(), eager.HashOps())
	}
}

// A second barrier with nothing pending must be free and keep the root.
func TestPersistBarrierIdempotent(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine = EngineCached
	cached := NewCachedTree(cfg)
	cached.Update(1, blockWith(1))
	cached.PersistBarrier()
	r := cached.Root()
	ops := cached.HashOps()
	cached.PersistBarrier()
	if cached.Root() != r || cached.HashOps() != ops {
		t.Fatal("empty barrier must be a no-op")
	}
}

// Persisted propagates exactly the named page: its block then verifies
// via the tree path, while other pages stay pending in the dirty cache.
func TestPersistedPropagatesSinglePage(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine = EngineCached
	cached := NewCachedTree(cfg)
	cached.Update(2, blockWith(2))
	cached.Update(40, blockWith(3))
	cached.Persisted(2)
	// Page 2 left the dirty cache: a verify now walks the Bonsai path.
	before := cached.HashOps()
	if ok, _ := cached.Verify(2, blockWith(2)); !ok {
		t.Fatal("persisted page must verify via the tree")
	}
	if got := cached.HashOps() - before; got != uint64(cfg.verifyPath()) {
		t.Fatalf("tree-path verify hash_ops = %d, want %d", got, cfg.verifyPath())
	}
	// Page 40 is still pending and still authenticated.
	if ok, _ := cached.Verify(40, blockWith(3)); !ok {
		t.Fatal("pending page must verify via the dirty cache")
	}
	// Persisted on a clean page is a no-op.
	ops := cached.HashOps()
	cached.Persisted(2)
	if cached.HashOps() != ops {
		t.Fatal("Persisted on a clean page must not hash")
	}
}

// The dirty cache is bounded: overflowing it forces a coalescing
// propagation instead of unbounded growth.
func TestDirtyCacheOverflowForcesBarrier(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine = EngineCached
	cfg.DirtyCacheNodes = 8
	cached := NewCachedTree(cfg)
	for i := 0; i < 32; i++ {
		cached.Update(addr.PageNum(i), blockWith(byte(i+1)))
		if len(cached.dirty) > cfg.DirtyCacheNodes {
			t.Fatalf("dirty cache grew to %d > cap %d", len(cached.dirty), cfg.DirtyCacheNodes)
		}
	}
	// Re-dirtying an already-pending page must not force a flush.
	cached.PersistBarrier()
	cached.Update(0, blockWith(1))
	before := cached.flushHashes.Value()
	for i := 0; i < 100; i++ {
		cached.Update(0, blockWith(byte(i+1)))
	}
	if cached.flushHashes.Value() != before {
		t.Fatal("same-leaf re-dirtying must not trigger overflow flushes")
	}
}

// The cached engine's flush events must account for exactly its
// propagation hash ops, level by level.
func TestFlushEventsMatchFlushHashes(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine = EngineCached
	cached := NewCachedTree(cfg)
	bus := obs.NewBus(obs.Config{})
	cached.SetBus(bus)
	for i := 0; i < 10; i++ {
		cached.Update(addr.PageNum(i*3), blockWith(byte(i+1)))
	}
	cached.PersistBarrier()
	var fromEvents uint64
	for _, ev := range bus.Events() {
		if ev.Kind == obs.EvMerkleFlush {
			if ev.Addr < 1 || ev.Addr > uint64(cfg.Depth) {
				t.Fatalf("flush event level %d out of range", ev.Addr)
			}
			fromEvents += ev.Arg
		}
	}
	if fromEvents != cached.flushHashes.Value() {
		t.Fatalf("flush events account for %d hashes, counter says %d",
			fromEvents, cached.flushHashes.Value())
	}
}

func TestCachedStatsAndReset(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine = EngineCached
	cached := NewCachedTree(cfg)
	cached.Update(1, blockWith(1))
	cached.Verify(1, blockWith(1))
	cached.PersistBarrier()
	s := cached.StatsSet()
	for _, name := range []string{"updates", "verifies", "hash_ops", "verify_hits", "flushes", "flush_hashes"} {
		if _, ok := s.Get(name); !ok {
			t.Fatalf("stat %q not registered", name)
		}
	}
	cached.ResetStats()
	if cached.HashOps() != 0 || cached.flushHashes.Value() != 0 {
		t.Fatal("ResetStats must zero every counter")
	}
	// Reset clears statistics, never authenticated state.
	if ok, _ := cached.Verify(1, blockWith(1)); !ok {
		t.Fatal("state must survive ResetStats")
	}
}

func TestEagerResetStats(t *testing.T) {
	tr := smallTree()
	tr.Update(1, blockWith(1))
	tr.Verify(1, blockWith(1))
	tr.ResetStats()
	if tr.HashOps() != 0 || tr.updates.Value() != 0 || tr.verifies.Value() != 0 {
		t.Fatal("ResetStats must zero every counter")
	}
	if ok, _ := tr.Verify(1, blockWith(1)); !ok {
		t.Fatal("state must survive ResetStats")
	}
}

// An update burst plus a barrier over leaves whose tree nodes already
// exist must not allocate: the barrier sorts a tree-owned leaf buffer,
// and the dirty cache and node maps are rewritten in place.
func TestCachedBarrierZeroAllocs(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine = EngineCached
	cached := NewCachedTree(cfg)
	burst := func(v byte) {
		for i := 0; i < 256; i++ {
			cached.Update(addr.PageNum(i%32*7), blockWith(v+byte(i)))
		}
		cached.PersistBarrier()
	}
	burst(1) // materialise the 32 leaves' paths
	v := byte(2)
	if n := testing.AllocsPerRun(100, func() {
		burst(v)
		v++
	}); n != 0 {
		t.Fatalf("update burst + barrier allocates %v per run, want 0", n)
	}
}
