package hier

import (
	"math/rand"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/cache"
	"silentshredder/internal/memctrl"
)

// Fuzz-style stress: random reads/writes/NT-stores/shreds/flushes across
// four cores over a small block universe; the structural invariants
// (inclusion, directory coverage, single writer) must hold after every
// operation.
func TestRandomOpsPreserveInvariants(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(4), memctrl.SilentShredder)
	rng := rand.New(rand.NewSource(99))

	const npages = 3
	var universe []addr.Phys
	for b := 0; b < npages*addr.BlocksPerPage; b++ {
		universe = append(universe, addr.Phys(b)<<addr.BlockShift)
	}

	for i := 0; i < 4000; i++ {
		a := universe[rng.Intn(len(universe))]
		core := rng.Intn(4)
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			h.Read(core, a)
		case 4, 5, 6:
			h.Write(core, a)
		case 7:
			h.WriteNonTemporal(a)
		case 8:
			p := a.Page()
			h.ShredInvalidate(p)
			mc.Shred(p)
		case 9:
			if rng.Intn(50) == 0 {
				h.FlushAll()
			} else {
				h.Read(core, a)
			}
		}
		if i%97 == 0 {
			if err := h.CheckInvariants(universe); err != nil {
				t.Fatalf("after %d ops: %v", i, err)
			}
		}
	}
	if err := h.CheckInvariants(universe); err != nil {
		t.Fatal(err)
	}
}

// The invariant checker itself must detect a planted violation.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	h, _, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
	h.Read(0, 0x40)
	// Corrupt: invalidate the L3 copy behind the hierarchy's back,
	// breaking inclusion.
	h.L3().Invalidate(0x40)
	if err := h.CheckInvariants([]addr.Phys{0x40}); err == nil {
		t.Fatal("planted inclusion violation not detected")
	}
}

func TestFlushPage(t *testing.T) {
	h, mc, _ := newHier(t, tinyConfig(2), memctrl.Baseline)
	p := addr.PageNum(1)
	h.Write(0, p.BlockAddr(0))
	h.Write(1, p.BlockAddr(1))
	h.Read(0, p.BlockAddr(2))
	dirty := h.FlushPage(p)
	if dirty != 2 {
		t.Fatalf("FlushPage wrote %d blocks, want 2", dirty)
	}
	if mc.DataWrites() != 2 {
		t.Fatalf("controller writes = %d", mc.DataWrites())
	}
	// Everything gone from every level.
	for i := 0; i < 3; i++ {
		if h.L4().Probe(p.BlockAddr(i)) != nil {
			t.Fatalf("block %d survived FlushPage", i)
		}
	}
	if err := h.CheckInvariants([]addr.Phys{p.BlockAddr(0), p.BlockAddr(1), p.BlockAddr(2)}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryFilterMatchesProbeAll drives a seeded sharing pattern from
// eight cores over a few pages, in caches small enough that L3 and L4
// evict constantly, so every back-invalidation path runs through the
// directory's holder masks. Before each ShredInvalidate and FlushPage the
// expected result is counted by probing every core's L1 and L2 (and the
// shared levels, for dirtiness): the directory-filtered operations must
// report exactly that, and the invariants must hold after every step.
func TestDirectoryFilterMatchesProbeAll(t *testing.T) {
	const cores, npages = 8, 4
	h, mc, _ := newHier(t, tinyConfig(cores), memctrl.SilentShredder)
	rng := rand.New(rand.NewSource(2016))

	privateLines := func(p addr.PageNum) int {
		n := 0
		for i := 0; i < addr.BlocksPerPage; i++ {
			for c := 0; c < cores; c++ {
				if h.L1(c).Probe(p.BlockAddr(i)) != nil {
					n++
				}
				if h.L2(c).Probe(p.BlockAddr(i)) != nil {
					n++
				}
			}
		}
		return n
	}
	dirtyBlocks := func(p addr.PageNum) int {
		n := 0
		for i := 0; i < addr.BlocksPerPage; i++ {
			a := p.BlockAddr(i)
			lines := []*cache.Meta{h.L3().Probe(a), h.L4().Probe(a)}
			for c := 0; c < cores; c++ {
				lines = append(lines, h.L1(c).Probe(a), h.L2(c).Probe(a))
			}
			for _, l := range lines {
				if l != nil && l.Dirty {
					n++
					break
				}
			}
		}
		return n
	}

	shreds, flushes, msgsSeen := 0, 0, 0
	for i := 0; i < 20000; i++ {
		p := addr.PageNum(rng.Intn(npages))
		a := p.BlockAddr(rng.Intn(addr.BlocksPerPage))
		core := rng.Intn(cores)
		switch r := rng.Intn(100); {
		case r < 55:
			h.Read(core, a)
		case r < 93:
			h.Write(core, a)
		case r < 96:
			h.WriteNonTemporal(a)
		case r < 98:
			want := privateLines(p)
			if got := h.ShredInvalidate(p); got != want {
				t.Fatalf("op %d: ShredInvalidate(%d) = %d messages, probing every core counts %d", i, p, got, want)
			}
			mc.Shred(p)
			shreds++
			msgsSeen += want
		default:
			want := dirtyBlocks(p)
			if got := h.FlushPage(p); got != want {
				t.Fatalf("op %d: FlushPage(%d) = %d dirty blocks, probing every cache counts %d", i, p, got, want)
			}
			flushes++
		}
		if err := h.CheckAll(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if shreds == 0 || flushes == 0 || msgsSeen == 0 {
		t.Fatalf("pattern too weak: %d shreds (%d messages), %d flushes", shreds, msgsSeen, flushes)
	}
	if h.L3().Evictions() == 0 || h.L4().Evictions() == 0 {
		t.Fatalf("no shared-level victims: L3 %d, L4 %d evictions", h.L3().Evictions(), h.L4().Evictions())
	}
}
