// Package physmem holds the functional (plaintext) image of physical
// memory as seen from inside the processor chip.
//
// The simulator splits function from timing: caches and the memory
// controller model *when* data moves and in what form (the NVM device
// stores ciphertext), while this image is the architecturally visible
// contents that loads and stores operate on. Pages materialize on first
// write into a dense page table indexed by page number — physical frames
// come from a linear pool starting at page 0, so the table stays within
// twice the highest frame written — and the image can be disabled
// entirely for timing-only experiments with very large footprints.
package physmem

import (
	"encoding/binary"

	"silentshredder/internal/addr"
)

// Image is a plaintext memory image. pages is indexed by page number
// and doubles on demand to cover the highest page written; a nil entry
// is a page never written, which reads as zeros.
type Image struct {
	enabled  bool
	pages    []*[addr.PageSize]byte
	resident int // non-nil entries in pages
}

// New creates an image. If store is false all operations are no-ops and
// reads return zeros; timing-only runs use that mode.
func New(store bool) *Image {
	return &Image{enabled: store}
}

// Enabled reports whether the image stores data.
func (m *Image) Enabled() bool { return m.enabled }

// page returns page p's storage, or nil if it was never written. A
// disabled image never materializes a page, so it always returns nil.
func (m *Image) page(p addr.PageNum) *[addr.PageSize]byte {
	if uint64(p) < uint64(len(m.pages)) {
		return m.pages[p]
	}
	return nil
}

// materialize returns page p's storage, allocating it (and growing the
// page table to cover p) on first use.
func (m *Image) materialize(p addr.PageNum) *[addr.PageSize]byte {
	if uint64(p) >= uint64(len(m.pages)) {
		grown := make([]*[addr.PageSize]byte, max(int(p)+1, 2*len(m.pages), 1024))
		copy(grown, m.pages)
		m.pages = grown
	}
	pg := m.pages[p]
	if pg == nil {
		pg = new([addr.PageSize]byte)
		m.pages[p] = pg
		m.resident++
	}
	return pg
}

// Read copies len(dst) bytes at physical address a into dst. Unwritten
// memory reads as zeros.
func (m *Image) Read(a addr.Phys, dst []byte) {
	for len(dst) > 0 {
		pg := m.page(a.Page())
		off := int(a.PageOffset())
		n := min(addr.PageSize-off, len(dst))
		if pg != nil {
			copy(dst[:n], pg[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		a += addr.Phys(n)
	}
}

// Write copies src to physical address a, materializing pages as needed.
func (m *Image) Write(a addr.Phys, src []byte) {
	if !m.enabled {
		return
	}
	for len(src) > 0 {
		pg := m.materialize(a.Page())
		off := int(a.PageOffset())
		n := copy(pg[off:], src)
		src = src[n:]
		a += addr.Phys(n)
	}
}

// ReadBlock returns the 64B block containing a.
func (m *Image) ReadBlock(a addr.Phys) [addr.BlockSize]byte {
	var out [addr.BlockSize]byte
	m.Read(a.Block(), out[:])
	return out
}

// ReadU64 reads a little-endian uint64 at a. A word inside one page is
// read in place; only a word straddling two pages takes the byte path.
func (m *Image) ReadU64(a addr.Phys) uint64 {
	if off := a.PageOffset(); off <= addr.PageSize-8 {
		if pg := m.page(a.Page()); pg != nil {
			return binary.LittleEndian.Uint64(pg[off : off+8])
		}
		return 0
	}
	var b [8]byte
	m.Read(a, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64 at a, in place when the word
// lies inside one page.
func (m *Image) WriteU64(a addr.Phys, v uint64) {
	if !m.enabled {
		return
	}
	if off := a.PageOffset(); off <= addr.PageSize-8 {
		binary.LittleEndian.PutUint64(m.materialize(a.Page())[off:off+8], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(a, b[:])
}

// ZeroPage zeroes page p. Used by the kernel's zeroing strategies and by
// the Silent Shredder path to make the architectural contents of a
// shredded page read as zeros.
func (m *Image) ZeroPage(p addr.PageNum) {
	if pg := m.page(p); pg != nil {
		*pg = [addr.PageSize]byte{}
	}
	// An unmaterialized page already reads as zeros.
}

// Snapshot exports the image contents (checkpointing). Returns nil when
// the image is disabled.
func (m *Image) Snapshot() map[addr.PageNum][]byte {
	if !m.enabled {
		return nil
	}
	out := make(map[addr.PageNum][]byte, m.resident)
	m.ForEachPage(func(p addr.PageNum, data *[addr.PageSize]byte) {
		out[p] = append([]byte(nil), data[:]...)
	})
	return out
}

// Restore replaces the image contents. A nil snapshot clears the image.
func (m *Image) Restore(pages map[addr.PageNum][]byte) {
	m.pages, m.resident = nil, 0
	if !m.enabled {
		return
	}
	for p, data := range pages {
		copy(m.materialize(p)[:], data)
	}
}

// ForEachPage calls fn for every materialized page in ascending page
// order (deterministic for scanning and reporting). The crash-recovery
// leak scan walks the recovered image this way.
func (m *Image) ForEachPage(fn func(p addr.PageNum, data *[addr.PageSize]byte)) {
	for p, pg := range m.pages {
		if pg != nil {
			fn(addr.PageNum(p), pg)
		}
	}
}

// PageResident reports whether page p has been materialized.
func (m *Image) PageResident(p addr.PageNum) bool { return m.page(p) != nil }

// ResidentPages returns the number of materialized pages (for memory
// accounting in big sweeps).
func (m *Image) ResidentPages() int { return m.resident }
