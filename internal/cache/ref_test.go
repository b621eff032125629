package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"silentshredder/internal/addr"
)

// refWay is one way of the reference cache: the array-of-structs layout
// with a per-way replacement clock that the SoA tag mirror, the 2-byte
// metadata array and the rank words replaced.
type refWay struct {
	valid bool
	tag   uint64
	state State
	dirty bool
	clock uint64
}

// refCache is the obvious set-associative cache with true LRU, kept as
// the reference TestCacheMatchesReference checks Cache against.
type refCache struct {
	ways                                    []refWay
	assoc                                   int
	nsets                                   uint64
	clock                                   uint64
	hits, misses, evictions, dirtyEvictions uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.Size / (cfg.Assoc * addr.BlockSize)
	return &refCache{ways: make([]refWay, nsets*cfg.Assoc), assoc: cfg.Assoc, nsets: uint64(nsets)}
}

func (r *refCache) set(a addr.Phys) []refWay {
	si := int(tagOf(a) % r.nsets)
	return r.ways[si*r.assoc : (si+1)*r.assoc]
}

func (r *refCache) find(a addr.Phys) *refWay {
	set := r.set(a)
	for i := range set {
		if set[i].valid && set[i].tag == tagOf(a) {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) touch(w *refWay) { r.clock++; w.clock = r.clock }

func (r *refCache) lookup(a addr.Phys) *refWay {
	w := r.find(a)
	if w == nil {
		r.misses++
		return nil
	}
	r.hits++
	r.touch(w)
	return w
}

func (r *refCache) lookupOwned(a addr.Phys) (*refWay, bool) {
	w := r.find(a)
	if w == nil {
		return nil, false
	}
	if w.state != Modified && w.state != Exclusive {
		return nil, true
	}
	r.hits++
	r.touch(w)
	return w, true
}

func (r *refCache) insert(a addr.Phys, st State, dirty bool) (Line, bool) {
	if w := r.find(a); w != nil {
		w.state, w.dirty = st, w.dirty || dirty
		r.touch(w)
		return Line{}, false
	}
	set := r.set(a)
	vi := -1
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
	}
	var victim Line
	evicted := false
	if vi < 0 {
		vi = 0
		for i := range set {
			if set[i].clock < set[vi].clock {
				vi = i
			}
		}
		v := set[vi]
		victim, evicted = Line{Tag: v.tag, Meta: Meta{State: v.state, Dirty: v.dirty}}, true
		r.evictions++
		if v.dirty {
			r.dirtyEvictions++
		}
	}
	set[vi] = refWay{valid: true, tag: tagOf(a), state: st, dirty: dirty}
	r.touch(&set[vi])
	return victim, evicted
}

func (r *refCache) invalidate(a addr.Phys) (Line, bool) {
	w := r.find(a)
	if w == nil {
		return Line{}, false
	}
	old := Line{Tag: w.tag, Meta: Meta{State: w.state, Dirty: w.dirty}}
	w.valid, w.state, w.dirty = false, Invalid, false
	return old, true
}

func (r *refCache) flushAll() []Line {
	var dirty []Line
	for i := range r.ways {
		w := &r.ways[i]
		if w.valid && w.dirty {
			dirty = append(dirty, Line{Tag: w.tag, Meta: Meta{State: w.state, Dirty: w.dirty}})
		}
		w.valid, w.state, w.dirty = false, Invalid, false
	}
	return dirty
}

// resident lists the valid lines in set order, as ForEachLine walks them.
func (r *refCache) resident() []Line {
	var out []Line
	for _, w := range r.ways {
		if w.valid {
			out = append(out, Line{Tag: w.tag, Meta: Meta{State: w.state, Dirty: w.dirty}})
		}
	}
	return out
}

func metaOf(w *refWay) *Meta {
	if w == nil {
		return nil
	}
	return &Meta{State: w.state, Dirty: w.dirty}
}

func sameMeta(got *Meta, want *Meta) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return *got == *want
}

// TestCacheMatchesReference drives Cache and the array-of-structs
// reference through the same seeded mix of every entry point, at
// associativities on both LRU schemes (rank word for <= 8 ways, per-way
// clocks above) and at geometries on both InvalidatePageCount paths.
// After every op the returned line or metadata, the hit/miss/eviction
// counters and the ForEachLine resident set must match. Metadata is also
// mutated through the returned pointers, so a pointer to the wrong way
// shows up as diverging state.
func TestCacheMatchesReference(t *testing.T) {
	for _, assoc := range []int{4, 8, 16} {
		for _, nsets := range []int{8, 128} {
			cfg := Config{Name: fmt.Sprintf("a%d-s%d", assoc, nsets), Size: nsets * assoc * addr.BlockSize, Assoc: assoc}
			t.Run(cfg.Name, func(t *testing.T) { diffCache(t, cfg, int64(assoc*1000+nsets)) })
		}
	}
}

func diffCache(t *testing.T, cfg Config, seed int64) {
	c, ref := New(cfg), newRefCache(cfg)
	rng := rand.New(rand.NewSource(seed))
	// Twice as many distinct blocks as ways keeps sets under pressure.
	nblocks := 2 * cfg.Size / addr.BlockSize
	states := []State{Shared, Exclusive, Modified}
	for step := 0; step < 30000; step++ {
		a := addr.Phys(rng.Intn(nblocks))<<addr.BlockShift + addr.Phys(rng.Intn(addr.BlockSize))
		st, dirty := states[rng.Intn(len(states))], rng.Intn(2) == 0
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d op on %#x: "+format, append([]any{step, a}, args...)...)
		}
		switch rng.Intn(12) {
		case 0, 1, 2:
			gv, ge := c.Insert(a, st, dirty)
			wv, we := ref.insert(a, st, dirty)
			if ge != we || gv != wv {
				fail("Insert victim %+v/%v, want %+v/%v", gv, ge, wv, we)
			}
		case 3, 4:
			g, w := c.Lookup(a), ref.lookup(a)
			if !sameMeta(g, metaOf(w)) {
				fail("Lookup = %+v, want %+v", g, metaOf(w))
			}
			if g != nil && rng.Intn(3) == 0 {
				g.Dirty, w.dirty = dirty, dirty
			}
		case 5:
			if g, w := c.LookupHit(a), ref.lookup(a) != nil; g != w {
				fail("LookupHit = %v, want %v", g, w)
			}
		case 6:
			g, gp := c.LookupOwned(a)
			w, wp := ref.lookupOwned(a)
			if gp != wp || !sameMeta(g, metaOf(w)) {
				fail("LookupOwned = %+v/%v, want %+v/%v", g, gp, metaOf(w), wp)
			}
			if g != nil {
				g.State, g.Dirty = Modified, true
				w.state, w.dirty = Modified, true
			}
		case 7:
			g, w := c.Probe(a), ref.find(a)
			if !sameMeta(g, metaOf(w)) {
				fail("Probe = %+v, want %+v", g, metaOf(w))
			}
			if g != nil && rng.Intn(2) == 0 {
				g.State, w.state = st, st
			}
		case 8, 9:
			g, gok := c.Invalidate(a)
			w, wok := ref.invalidate(a)
			if gok != wok || g != w {
				fail("Invalidate = %+v/%v, want %+v/%v", g, gok, w, wok)
			}
		case 10:
			p := a.Page()
			want := 0
			for i := 0; i < addr.BlocksPerPage; i++ {
				if _, ok := ref.invalidate(p.BlockAddr(i)); ok {
					want++
				}
			}
			if got := c.InvalidatePageCount(p); got != want {
				fail("InvalidatePageCount = %d, want %d", got, want)
			}
		case 11:
			if rng.Intn(20) != 0 {
				continue
			}
			g, w := c.FlushAll(), ref.flushAll()
			if len(g) != len(w) {
				fail("FlushAll returned %d lines, want %d", len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					fail("FlushAll line %d = %+v, want %+v", i, g[i], w[i])
				}
			}
		}
		if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Evictions() != ref.evictions || c.DirtyEvictions() != ref.dirtyEvictions {
			fail("counters %d/%d/%d/%d, want %d/%d/%d/%d", c.Hits(), c.Misses(), c.Evictions(), c.DirtyEvictions(),
				ref.hits, ref.misses, ref.evictions, ref.dirtyEvictions)
		}
		want := ref.resident()
		i := 0
		c.ForEachLine(func(la addr.Phys, m *Meta) {
			if i >= len(want) || la != want[i].Addr() || *m != want[i].Meta {
				fail("ForEachLine visit %d = %#x %+v, want %+v", i, la, *m, want)
			}
			i++
		})
		if i != len(want) {
			fail("ForEachLine visited %d lines, want %d", i, len(want))
		}
	}
}
