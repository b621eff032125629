// Package ctr implements the counter-mode memory-encryption engine used by
// the secure NVMM controller (paper §2.2, Figure 2).
//
// Every 4KB page has a counter block holding one 64-bit major counter and
// 64 seven-bit minor counters, one per 64-byte cache block. The counter
// block itself is exactly 64 bytes (8 + 64*7/8 = 8 + 56), so it occupies a
// single cache line in the counter cache — the layout from Yan et al.
// adopted by the paper.
//
// A cache block's initialization vector (IV) combines the page's unique ID,
// the block's offset within the page, the page's major counter and the
// block's minor counter. Encrypting the IV with the memory key produces a
// one-time pad; data is encrypted and decrypted by XORing with the pad.
// Spatial uniqueness comes from pageID+offset, temporal uniqueness from the
// counters: every write back increments the block's minor counter so a pad
// is never reused.
//
// Silent Shredder reserves minor-counter value 0 to mean "shredded": the
// block has no valid ciphertext and reads return a zero-filled block
// (paper §4.2, option three). Consequently minor counters used for real
// data run from 1 to 127, and an overflow past 127 triggers page
// re-encryption rather than wrapping to the reserved value.
package ctr

import (
	"encoding/binary"
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/aes"
)

// Minor-counter constants (7-bit counters, value 0 reserved as "shredded").
const (
	MinorBits     = 7
	MinorMax      = 1<<MinorBits - 1 // 127
	MinorShredded = 0                // reserved: block reads as zeros
	MinorFirst    = 1                // value after the first post-shred write
)

// CounterBlockSize is the encoded size of a page's counter block in bytes.
const CounterBlockSize = addr.BlockSize

// CounterBlock is the per-page encryption state: a major counter shared by
// the whole page and a minor counter per 64B block.
type CounterBlock struct {
	Major uint64
	Minor [addr.BlocksPerPage]uint8 // 7-bit values, 0 = shredded
}

// SaturationError reports an attempt to advance a major counter past its
// 64-bit maximum. Silently wrapping a major counter to 0 would reuse
// every pad ever generated for the page — the one unforgivable sin of
// counter-mode encryption — so the engine refuses with a typed error
// instead. (At one shred per nanosecond, saturation takes ~584 years; a
// real controller would re-key the device long before. The simulator
// makes the boundary explicit and testable.)
type SaturationError struct {
	Major uint64
}

func (e *SaturationError) Error() string {
	return fmt.Sprintf("ctr: major counter saturated at %d; advancing would wrap and reuse pads (device must be re-keyed)", e.Major)
}

// BumpMajor advances the major counter, panicking with a *SaturationError
// if it is at its maximum — the explicit rejection of silent wraparound.
func (cb *CounterBlock) BumpMajor() {
	if cb.Major == ^uint64(0) {
		panic(&SaturationError{Major: cb.Major})
	}
	cb.Major++
}

// Shred applies Silent Shredder's page shred: the major counter is
// incremented (changing every block's IV, which renders the existing
// ciphertext undecipherable) and all minor counters are reset to the
// reserved shredded value so subsequent reads return zero-filled blocks.
func (cb *CounterBlock) Shred() {
	cb.BumpMajor()
	for i := range cb.Minor {
		cb.Minor[i] = MinorShredded
	}
}

// Reencrypt applies the page re-encryption counter update: the major
// counter is incremented and all minor counters reset to MinorFirst (not
// the reserved 0 — paper §4.2). The caller is responsible for actually
// rewriting the page's blocks under the new IVs.
func (cb *CounterBlock) Reencrypt() {
	cb.BumpMajor()
	for i := range cb.Minor {
		cb.Minor[i] = MinorFirst
	}
}

// BumpMinor advances block i's minor counter for a write back and reports
// whether it overflowed. On overflow the counter state is untouched; the
// caller must perform page re-encryption (Reencrypt) and then re-issue the
// write. A shredded block's first write moves its counter to MinorFirst.
func (cb *CounterBlock) BumpMinor(i int) (overflow bool) {
	if cb.Minor[i] >= MinorMax {
		return true
	}
	cb.Minor[i]++
	return false
}

// Shredded reports whether block i is in the shredded state.
func (cb *CounterBlock) Shredded(i int) bool { return cb.Minor[i] == MinorShredded }

// Encode packs the counter block into its 64-byte memory representation:
// 8 bytes of major counter followed by 64 seven-bit minor counters packed
// little-endian into 56 bytes (minor i at bits 7i..7i+6 of out[8:]).
//
// Eight 7-bit minors fill exactly 7 bytes, so the minors are packed a
// group of eight at a time: one 8-byte load of the minor array, a
// shift/mask gather into a 56-bit word, and one 8-byte store. Bit 7 of
// each minor is masked off.
func (cb *CounterBlock) Encode() [CounterBlockSize]byte {
	var out [CounterBlockSize]byte
	binary.LittleEndian.PutUint64(out[:8], cb.Major)
	var w uint64
	for g := 0; g < 7; g++ {
		w = gather56(binary.LittleEndian.Uint64(cb.Minor[8*g:]))
		// The store's eighth byte is zero and lands on the first byte of
		// group g+1, which the next store overwrites.
		binary.LittleEndian.PutUint64(out[8+7*g:], w)
	}
	// The last group ends at out[63]: store it one byte lower, carrying
	// group 6's top byte through.
	last := gather56(binary.LittleEndian.Uint64(cb.Minor[56:]))
	binary.LittleEndian.PutUint64(out[56:], last<<8|w>>48)
	return out
}

// DecodeCounterBlock unpacks a 64-byte counter block representation.
func DecodeCounterBlock(raw [CounterBlockSize]byte) CounterBlock {
	var cb CounterBlock
	cb.Major = binary.LittleEndian.Uint64(raw[:8])
	for g := 0; g < 7; g++ {
		w := binary.LittleEndian.Uint64(raw[8+7*g:]) & (1<<56 - 1)
		binary.LittleEndian.PutUint64(cb.Minor[8*g:], scatter56(w))
	}
	binary.LittleEndian.PutUint64(cb.Minor[56:], scatter56(binary.LittleEndian.Uint64(raw[56:])>>8))
	return cb
}

// gather56 packs the low 7 bits of each of v's eight bytes into a 56-bit
// word, byte j landing at bits 7j..7j+6. The first step's masks drop
// every byte's bit 7.
func gather56(v uint64) uint64 {
	v = v&0x007f007f007f007f | v&0x7f007f007f007f00>>1
	v = v&0x00003fff00003fff | v&0x3fff00003fff0000>>2
	return v&0x000000000fffffff | v&0x0fffffff00000000>>4
}

// scatter56 is gather56's inverse: 7-bit field j of the 56-bit word w
// becomes byte j of the result, with bit 7 clear.
func scatter56(w uint64) uint64 {
	w = w&0x000000000fffffff | w&0x00fffffff0000000<<4
	w = w&0x00003fff00003fff | w&0x0fffc0000fffc000<<2
	return w&0x007f007f007f007f | w&0x3f803f803f803f80<<1
}

// IV is the 16-byte initialization vector for one 16-byte pad chunk.
//
// Layout (16 bytes, the AES block size):
//
//	bytes 0..5   page ID (48 bits — unique across memory and swap)
//	byte  6      block index within page (6 bits) | pad-chunk index (2 bits)
//	byte  7      minor counter (7 bits)
//	bytes 8..15  major counter (64 bits)
//
// A 64-byte cache block needs four 16-byte pad chunks; the chunk index
// keeps their IVs distinct. None of the IV is secret (paper §2.2) — only
// the key is.
type IV [aes.BlockSize]byte

// MakeIV constructs the IV for pad chunk `chunk` (0..3) of the given block.
func MakeIV(page addr.PageNum, blockIdx int, major uint64, minor uint8, chunk int) IV {
	if blockIdx < 0 || blockIdx >= addr.BlocksPerPage {
		panic(fmt.Sprintf("ctr: block index %d out of range", blockIdx))
	}
	if chunk < 0 || chunk >= addr.BlockSize/aes.BlockSize {
		panic(fmt.Sprintf("ctr: pad chunk %d out of range", chunk))
	}
	var iv IV
	binary.LittleEndian.PutUint64(iv[0:8], uint64(page)&0xFFFF_FFFF_FFFF)
	iv[6] = byte(blockIdx<<2 | chunk)
	iv[7] = minor & MinorMax
	binary.LittleEndian.PutUint64(iv[8:16], major)
	return iv
}

// padCacheSize is the number of entries in the engine's direct-mapped
// pad cache. A pad is a pure function of (page, blockIdx, major, minor),
// so caching is invisible to correctness: a hit returns bit-for-bit what
// regeneration would. 512 64-byte pads = 32KB, roughly the pad-buffer
// SRAM a controller would provision.
const padCacheSize = 512

type padEntry struct {
	valid bool
	page  addr.PageNum
	major uint64
	sub   uint16 // blockIdx<<8 | minor
	pad   [addr.BlockSize]byte
}

// Engine turns IVs into pads and applies them to cache blocks. It is the
// cryptographic half of the secure memory controller; it holds the single
// system-wide memory key (the paper's design deliberately shares one key —
// §4.2 discusses why per-process keys are impractical).
//
// The engine keeps a direct-mapped cache of recently generated pads and
// scratch IV and pad buffers, so it is not safe for concurrent use; the
// simulator gives each machine its own engine.
type Engine struct {
	cipher *aes.Cipher
	// Scratch buffers: four 16-byte IVs per block pad, and the pad they
	// encrypt to. The cipher is reached through an interface, so any
	// buffer handed to it escapes; keeping them in the engine keeps pad
	// generation allocation-free.
	ivs, out           [addr.BlockSize]byte
	pads               [padCacheSize]padEntry
	padHits, padMisses uint64
}

// NewEngine creates an engine from a 16-, 24- or 32-byte memory key.
func NewEngine(key []byte) (*Engine, error) {
	c, err := aes.New(key)
	if err != nil {
		return nil, err
	}
	return &Engine{cipher: c}, nil
}

// Pad computes the 64-byte one-time pad for a block under the given
// counters. This is the naive reference path: one MakeIV + Encrypt call
// per 16-byte chunk, no caching. PadInto/CachedPad are the fast paths;
// the differential tests pin them bit-identical to this.
func (e *Engine) Pad(page addr.PageNum, blockIdx int, major uint64, minor uint8) [addr.BlockSize]byte {
	for chunk := 0; chunk < addr.BlockSize/aes.BlockSize; chunk++ {
		iv := MakeIV(page, blockIdx, major, minor, chunk)
		off := chunk * aes.BlockSize
		copy(e.ivs[off:], iv[:])
		e.cipher.Encrypt(e.out[off:], e.ivs[off:])
	}
	return e.out
}

// PadInto computes the 64-byte pad into dst with one batched AES pass:
// the IV is built once and replicated with only the chunk-index byte
// varying, then all four chunks run through the cipher in one
// EncryptBlocks call. Bit-identical to Pad.
func (e *Engine) PadInto(dst *[addr.BlockSize]byte, page addr.PageNum, blockIdx int, major uint64, minor uint8) {
	iv := MakeIV(page, blockIdx, major, minor, 0)
	for chunk := 0; chunk < addr.BlockSize/aes.BlockSize; chunk++ {
		copy(e.ivs[chunk*aes.BlockSize:], iv[:])
		e.ivs[chunk*aes.BlockSize+6] = byte(blockIdx<<2 | chunk)
	}
	e.cipher.EncryptBlocks(dst[:], e.ivs[:])
}

// CachedPad returns the pad for (page, blockIdx, major, minor) from the
// engine's direct-mapped pad cache, generating it with PadInto on a miss.
// The returned pointer is valid until the entry is displaced; callers
// must not mutate it.
func (e *Engine) CachedPad(page addr.PageNum, blockIdx int, major uint64, minor uint8) *[addr.BlockSize]byte {
	sub := uint16(blockIdx)<<8 | uint16(minor&MinorMax)
	idx := (uint64(page)*0x9E3779B97F4A7C15 ^ major ^ uint64(sub)) & (padCacheSize - 1)
	en := &e.pads[idx]
	if en.valid && en.page == page && en.major == major && en.sub == sub {
		e.padHits++
		return &en.pad
	}
	e.padMisses++
	en.valid, en.page, en.major, en.sub = true, page, major, sub
	e.PadInto(&en.pad, page, blockIdx, major, minor)
	return &en.pad
}

// PadCacheStats returns the pad cache's hit and miss counts (for
// benchmarks and tests; cache behavior never affects pad values).
func (e *Engine) PadCacheStats() (hits, misses uint64) { return e.padHits, e.padMisses }

// PadChunk computes one 16-byte pad chunk (chunk 0..3) of a block's pad.
// Schemes that encrypt sub-block regions under different counters (e.g.
// DEUCE) use it to avoid generating the chunks they do not need.
func (e *Engine) PadChunk(page addr.PageNum, blockIdx int, major uint64, minor uint8, chunk int) [aes.BlockSize]byte {
	iv := MakeIV(page, blockIdx, major, minor, chunk)
	copy(e.ivs[:], iv[:])
	e.cipher.Encrypt(e.out[:], e.ivs[:])
	return [aes.BlockSize]byte(e.out[:aes.BlockSize])
}

// Apply XORs the pad for (page, blockIdx, major, minor) into the 64-byte
// block in buf. Because XOR is an involution the same call both encrypts
// and decrypts; naming both operations makes call sites readable. The pad
// comes from the engine's pad cache and is XORed word-wise; the result is
// bit-identical to the naive per-byte path.
func (e *Engine) Apply(buf []byte, page addr.PageNum, blockIdx int, major uint64, minor uint8) {
	if len(buf) < addr.BlockSize {
		panic("ctr: buffer shorter than a block")
	}
	pad := e.CachedPad(page, blockIdx, major, minor)
	for i := 0; i < addr.BlockSize; i += 8 {
		v := binary.LittleEndian.Uint64(buf[i:]) ^ binary.LittleEndian.Uint64(pad[i:])
		binary.LittleEndian.PutUint64(buf[i:], v)
	}
}

// Encrypt encrypts a 64-byte plaintext block in place.
func (e *Engine) Encrypt(buf []byte, page addr.PageNum, blockIdx int, major uint64, minor uint8) {
	e.Apply(buf, page, blockIdx, major, minor)
}

// Decrypt decrypts a 64-byte ciphertext block in place.
func (e *Engine) Decrypt(buf []byte, page addr.PageNum, blockIdx int, major uint64, minor uint8) {
	e.Apply(buf, page, blockIdx, major, minor)
}
