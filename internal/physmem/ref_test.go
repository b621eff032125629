package physmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"silentshredder/internal/addr"
)

// refImage is the map-backed image the dense page table replaced, kept
// as the reference the differential test checks Image against.
type refImage struct {
	enabled bool
	pages   map[addr.PageNum]*[addr.PageSize]byte
}

func newRef(store bool) *refImage {
	return &refImage{enabled: store, pages: make(map[addr.PageNum]*[addr.PageSize]byte)}
}

func (r *refImage) read(a addr.Phys, dst []byte) {
	for i := range dst {
		dst[i] = 0
		if pg := r.pages[(a + addr.Phys(i)).Page()]; pg != nil {
			dst[i] = pg[(a + addr.Phys(i)).PageOffset()]
		}
	}
}

func (r *refImage) write(a addr.Phys, src []byte) {
	if !r.enabled {
		return
	}
	for i, b := range src {
		p := (a + addr.Phys(i)).Page()
		if r.pages[p] == nil {
			r.pages[p] = new([addr.PageSize]byte)
		}
		r.pages[p][(a + addr.Phys(i)).PageOffset()] = b
	}
}

func (r *refImage) zeroPage(p addr.PageNum) {
	if pg := r.pages[p]; pg != nil {
		*pg = [addr.PageSize]byte{}
	}
}

func (r *refImage) sortedPages() []addr.PageNum {
	ps := make([]addr.PageNum, 0, len(r.pages))
	for p := range r.pages {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}

// diffOffsets are the in-page offsets the sweep aims at: the first word,
// the last whole word, and the three words that straddle into the next
// page.
var diffOffsets = []uint64{0, addr.PageSize - 8, addr.PageSize - 3, addr.PageSize - 2, addr.PageSize - 1}

// TestImageMatchesMapReference drives Image and the map-backed reference
// through the same seeded op sweep — byte and word reads and writes at
// page-edge offsets, ZeroPage on written and never-written pages,
// Snapshot/Restore — and checks every read result, the resident set and
// its ForEachPage order after each op, with the image enabled and
// disabled.
func TestImageMatchesMapReference(t *testing.T) {
	for _, store := range []bool{true, false} {
		rng := rand.New(rand.NewSource(13))
		m, ref := New(store), newRef(store)
		var snap map[addr.PageNum][]byte
		for step := 0; step < 20000; step++ {
			// Pages 0..40 with a few far pages so the table grows in jumps.
			p := addr.PageNum(rng.Intn(41))
			if rng.Intn(50) == 0 {
				p = addr.PageNum(1000 + rng.Intn(3000))
			}
			off := diffOffsets[rng.Intn(len(diffOffsets))]
			if rng.Intn(3) == 0 {
				off = uint64(rng.Intn(addr.PageSize))
			}
			a := p.Addr() + addr.Phys(off)
			switch rng.Intn(9) {
			case 0, 1:
				v := rng.Uint64()
				m.WriteU64(a, v)
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				ref.write(a, b[:])
			case 2:
				var b [8]byte
				ref.read(a, b[:])
				if got, want := m.ReadU64(a), binary.LittleEndian.Uint64(b[:]); got != want {
					t.Fatalf("store=%v step %d: ReadU64(%#x) = %#x, want %#x", store, step, a, got, want)
				}
			case 3:
				src := make([]byte, 1+rng.Intn(200))
				rng.Read(src)
				m.Write(a, src)
				ref.write(a, src)
			case 4:
				n := 1 + rng.Intn(200)
				got, want := make([]byte, n), make([]byte, n)
				for i := range got {
					got[i] = 0xAA // Read must overwrite unwritten bytes with zeros
				}
				m.Read(a, got)
				ref.read(a, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("store=%v step %d: Read(%#x, %d) diverged", store, step, a, n)
				}
			case 5:
				m.ZeroPage(p)
				ref.zeroPage(p)
			case 6:
				if rng.Intn(8) == 0 {
					snap = m.Snapshot()
					if store != (snap != nil) {
						t.Fatalf("store=%v: Snapshot nil = %v", store, snap == nil)
					}
				}
			case 7:
				if rng.Intn(4) == 0 {
					m.Restore(snap)
					ref.pages = make(map[addr.PageNum]*[addr.PageSize]byte)
					if store {
						for q, data := range snap {
							pg := new([addr.PageSize]byte)
							copy(pg[:], data)
							ref.pages[q] = pg
						}
					}
				}
			case 8:
				if got, want := m.PageResident(p), ref.pages[p] != nil; got != want {
					t.Fatalf("store=%v step %d: PageResident(%d) = %v, want %v", store, step, p, got, want)
				}
			}
			checkResident(t, m, ref, step, step%16 == 0)
		}
		checkResident(t, m, ref, -1, true)
	}
}

// checkResident compares the resident set and its walk order, and with
// contents set every resident page's bytes.
func checkResident(t *testing.T, m *Image, ref *refImage, step int, contents bool) {
	t.Helper()
	want := ref.sortedPages()
	if m.ResidentPages() != len(want) {
		t.Fatalf("step %d: ResidentPages = %d, want %d", step, m.ResidentPages(), len(want))
	}
	i := 0
	m.ForEachPage(func(p addr.PageNum, data *[addr.PageSize]byte) {
		if i >= len(want) || p != want[i] {
			t.Fatalf("step %d: ForEachPage visit %d is page %d, want order %v", step, i, p, want)
		}
		if contents && *data != *ref.pages[p] {
			t.Fatalf("step %d: page %d contents diverged", step, p)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("step %d: ForEachPage visited %d pages, want %d", step, i, len(want))
	}
}

// u64Sink keeps BenchmarkReadU64's loads live.
var u64Sink uint64

func BenchmarkReadU64(b *testing.B) {
	m := New(true)
	for p := addr.PageNum(0); p < 64; p++ {
		m.WriteU64(p.Addr(), uint64(p))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u64Sink += m.ReadU64(addr.Phys(i*72) & (64*addr.PageSize - 1) &^ 7)
	}
}

func BenchmarkWriteU64(b *testing.B) {
	m := New(true)
	for p := addr.PageNum(0); p < 64; p++ {
		m.WriteU64(p.Addr(), uint64(p))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteU64(addr.Phys(i*72)&(64*addr.PageSize-1)&^7, uint64(i))
	}
}
