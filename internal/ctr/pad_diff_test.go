package ctr

import (
	"bytes"
	"math/rand"
	"testing"

	"silentshredder/internal/addr"
)

// padCorpus enumerates the counter combinations the differential tests
// sweep: every edge of each field plus a seeded random cloud. The fast
// paths (PadInto, CachedPad) must be byte-identical to the naive Pad
// reference on all of them.
func padCorpus() []struct {
	page  addr.PageNum
	blk   int
	major uint64
	minor uint8
} {
	type tc = struct {
		page  addr.PageNum
		blk   int
		major uint64
		minor uint8
	}
	corpus := []tc{
		{0, 0, 0, 0},
		{0, 0, 0, MinorMax},
		{0, addr.BlocksPerPage - 1, 0, 1},
		{1, 0, 1, 1},
		{addr.PageNum(1) << 30, 63, ^uint64(0), MinorMax},
		{addr.PageNum(padCacheSize), 7, 2, 3}, // same cache index as page 0 modulo size
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 512; i++ {
		corpus = append(corpus, tc{
			page:  addr.PageNum(rng.Uint64() >> 24),
			blk:   rng.Intn(addr.BlocksPerPage),
			major: rng.Uint64(),
			minor: uint8(rng.Intn(MinorMax + 1)),
		})
	}
	return corpus
}

// TestPadIntoMatchesPad pins the batched EncryptBlocks path bit-identical
// to the chunk-at-a-time reference.
func TestPadIntoMatchesPad(t *testing.T) {
	e := testEngine(t)
	for _, c := range padCorpus() {
		want := e.Pad(c.page, c.blk, c.major, c.minor)
		var got [addr.BlockSize]byte
		e.PadInto(&got, c.page, c.blk, c.major, c.minor)
		if !bytes.Equal(got[:], want[:]) {
			t.Fatalf("PadInto(%d,%d,%d,%d) differs from Pad", c.page, c.blk, c.major, c.minor)
		}
	}
}

// TestCachedPadMatchesPad pins the pad-cache path: first query (miss),
// repeat query (hit), and re-query after a colliding entry displaced it
// all must return the reference pad.
func TestCachedPadMatchesPad(t *testing.T) {
	e := testEngine(t)
	corpus := padCorpus()
	for _, c := range corpus {
		want := e.Pad(c.page, c.blk, c.major, c.minor)
		for pass := 0; pass < 2; pass++ { // miss, then hit
			got := e.CachedPad(c.page, c.blk, c.major, c.minor)
			if !bytes.Equal(got[:], want[:]) {
				t.Fatalf("CachedPad(%d,%d,%d,%d) pass %d differs from Pad", c.page, c.blk, c.major, c.minor, pass)
			}
		}
	}
	// Sweep again in a different order so most entries have been
	// displaced in between: stale hits would surface here.
	for i := len(corpus) - 1; i >= 0; i-- {
		c := corpus[i]
		want := e.Pad(c.page, c.blk, c.major, c.minor)
		if got := e.CachedPad(c.page, c.blk, c.major, c.minor); !bytes.Equal(got[:], want[:]) {
			t.Fatalf("CachedPad(%d,%d,%d,%d) after displacement differs from Pad", c.page, c.blk, c.major, c.minor)
		}
	}
	if hits, misses := e.PadCacheStats(); hits == 0 || misses == 0 {
		t.Fatalf("corpus did not exercise both cache outcomes: hits=%d misses=%d", hits, misses)
	}
}

// FuzzPadEquivalence fuzzes the three pad paths against each other.
func FuzzPadEquivalence(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint64(0), uint8(0))
	f.Add(uint64(12345), uint8(63), ^uint64(0), uint8(MinorMax))
	f.Add(uint64(1)<<40, uint8(17), uint64(7), uint8(1))
	e, err := NewEngine([]byte("0123456789abcdef"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, page uint64, blk uint8, major uint64, minor uint8) {
		p := addr.PageNum(page)
		b := int(blk) % addr.BlocksPerPage
		m := minor & MinorMax
		want := e.Pad(p, b, major, m)
		var into [addr.BlockSize]byte
		e.PadInto(&into, p, b, major, m)
		if !bytes.Equal(into[:], want[:]) {
			t.Fatalf("PadInto differs from Pad for (%d,%d,%d,%d)", p, b, major, m)
		}
		if got := e.CachedPad(p, b, major, m); !bytes.Equal(got[:], want[:]) {
			t.Fatalf("CachedPad differs from Pad for (%d,%d,%d,%d)", p, b, major, m)
		}
	})
}

// TestPadFastPathsZeroAllocs pins the fast pad paths allocation-free:
// pad generation runs on every NVM block read and write, so a single
// allocation here multiplies across the whole simulation.
func TestPadFastPathsZeroAllocs(t *testing.T) {
	e := testEngine(t)
	var dst [addr.BlockSize]byte
	if n := testing.AllocsPerRun(1000, func() {
		e.PadInto(&dst, 42, 7, 3, 1)
	}); n != 0 {
		t.Fatalf("PadInto allocates %v per call, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		e.CachedPad(addr.PageNum(i), i%addr.BlocksPerPage, uint64(i), uint8(i%MinorMax+1))
		i++
	}); n != 0 {
		t.Fatalf("CachedPad (miss path) allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		dst = e.Pad(42, 7, 3, 1)
	}); n != 0 {
		t.Fatalf("Pad allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		chunk := e.PadChunk(42, 7, 3, 1, 2)
		dst[0] = chunk[0]
	}); n != 0 {
		t.Fatalf("PadChunk allocates %v per call, want 0", n)
	}
}

// BenchmarkPadInto measures batched pad generation (the miss-path cost
// of every encrypted block access).
func BenchmarkPadInto(b *testing.B) {
	e, _ := NewEngine(make([]byte, 16))
	var dst [addr.BlockSize]byte
	b.SetBytes(addr.BlockSize)
	for i := 0; i < b.N; i++ {
		e.PadInto(&dst, addr.PageNum(i), i%addr.BlocksPerPage, uint64(i), uint8(i%MinorMax+1))
	}
}

// BenchmarkCachedPadHit measures the pad-cache hit path (repeated access
// to a block under unchanged counters).
func BenchmarkCachedPadHit(b *testing.B) {
	e, _ := NewEngine(make([]byte, 16))
	e.CachedPad(1, 2, 3, 4)
	b.SetBytes(addr.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CachedPad(1, 2, 3, 4)
	}
}

// BenchmarkCachedPadMiss measures the pad-cache miss path (distinct
// counters every call: generate plus install).
func BenchmarkCachedPadMiss(b *testing.B) {
	e, _ := NewEngine(make([]byte, 16))
	b.SetBytes(addr.BlockSize)
	for i := 0; i < b.N; i++ {
		e.CachedPad(addr.PageNum(i), i%addr.BlocksPerPage, uint64(i), uint8(i%MinorMax+1))
	}
}
