package ctr

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// encodeRef is the bit-at-a-time packer Encode replaced: each minor is
// placed 7 bits after the previous one, spilling into the next byte
// when it straddles a byte boundary. It is the reference the word-packed
// codec is pinned to.
func encodeRef(cb *CounterBlock) [CounterBlockSize]byte {
	var out [CounterBlockSize]byte
	binary.LittleEndian.PutUint64(out[:8], cb.Major)
	bitPos := 0
	for _, m := range cb.Minor {
		byteIdx := 8 + bitPos/8
		bitOff := bitPos % 8
		v := uint16(m&MinorMax) << bitOff
		out[byteIdx] |= byte(v)
		if bitOff > 1 { // spills into the next byte
			out[byteIdx+1] |= byte(v >> 8)
		}
		bitPos += MinorBits
	}
	return out
}

// decodeRef is the bit-at-a-time unpacker DecodeCounterBlock replaced.
func decodeRef(raw [CounterBlockSize]byte) CounterBlock {
	var cb CounterBlock
	cb.Major = binary.LittleEndian.Uint64(raw[:8])
	bitPos := 0
	for i := range cb.Minor {
		byteIdx := 8 + bitPos/8
		bitOff := bitPos % 8
		v := uint16(raw[byteIdx]) >> bitOff
		if bitOff > 1 {
			v |= uint16(raw[byteIdx+1]) << (8 - bitOff)
		}
		cb.Minor[i] = uint8(v & MinorMax)
		bitPos += MinorBits
	}
	return cb
}

// TestCodecMatchesReference sweeps seeded random counter blocks through
// the word-packed codec and the bit-at-a-time reference. Minors are full
// bytes, so half of them carry bit 7, which Encode must drop; raw
// decode inputs are arbitrary 64-byte strings.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var cb CounterBlock
	var raw [CounterBlockSize]byte
	for iter := 0; iter < 20000; iter++ {
		cb.Major = rng.Uint64()
		rng.Read(cb.Minor[:])
		if got, want := cb.Encode(), encodeRef(&cb); got != want {
			t.Fatalf("iter %d: Encode(%+v)\n got %x\nwant %x", iter, cb, got, want)
		}
		rng.Read(raw[:])
		if got, want := DecodeCounterBlock(raw), decodeRef(raw); got != want {
			t.Fatalf("iter %d: DecodeCounterBlock(%x)\n got %+v\nwant %+v", iter, raw, got, want)
		}
	}
	// Extremes: every minor at 0xff (all 7 data bits plus bit 7), and an
	// all-ones raw block.
	for i := range cb.Minor {
		cb.Minor[i] = 0xff
	}
	if got, want := cb.Encode(), encodeRef(&cb); got != want {
		t.Fatalf("all-0xff minors: got %x want %x", got, want)
	}
	for i := range raw {
		raw[i] = 0xff
	}
	if got, want := DecodeCounterBlock(raw), decodeRef(raw); got != want {
		t.Fatalf("all-ones raw: got %+v want %+v", got, want)
	}
}

func TestCodecZeroAllocs(t *testing.T) {
	cb := CounterBlock{Major: 7}
	for i := range cb.Minor {
		cb.Minor[i] = uint8(i)
	}
	raw := cb.Encode()
	if n := testing.AllocsPerRun(100, func() {
		raw = cb.Encode()
		cb = DecodeCounterBlock(raw)
	}); n != 0 {
		t.Fatalf("Encode+Decode allocate %.1f per run, want 0", n)
	}
}

var codecSink CounterBlock

func BenchmarkEncode(b *testing.B) {
	cb := CounterBlock{Major: 3}
	for i := range cb.Minor {
		cb.Minor[i] = uint8(i*5) & MinorMax
	}
	var raw [CounterBlockSize]byte
	for i := 0; i < b.N; i++ {
		raw = cb.Encode()
		cb.Major++
	}
	codecSink.Major = binary.LittleEndian.Uint64(raw[:8])
}

func BenchmarkDecode(b *testing.B) {
	cb := CounterBlock{Major: 3}
	for i := range cb.Minor {
		cb.Minor[i] = uint8(i*5) & MinorMax
	}
	raw := cb.Encode()
	for i := 0; i < b.N; i++ {
		codecSink = DecodeCounterBlock(raw)
		raw[0]++
	}
}
