// Package aes is the block cipher behind the counter-mode memory
// encryption engine.
//
// The secure memory controller uses AES in counter mode: the controller
// encrypts an initialization vector to produce a one-time pad and XORs the
// pad with the data (paper §2.2, Figure 2). Counter mode only ever invokes
// the forward direction of the block cipher.
//
// Pads come from crypto/aes: Encrypt and EncryptBlocks call a standard
// library block built once per Cipher, which uses the host's AES
// instructions where it has them. The package also carries a from-scratch,
// byte-oriented rendering of FIPS-197 (key expansion, SubBytes / ShiftRows
// / MixColumns / AddRoundKey, and the inverse cipher). That code is the
// test reference: EncryptRef and Decrypt run it, and the tests pin
// Encrypt to it and both to the published FIPS-197 vectors.
package aes

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// sbox is the AES forward substitution box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// invSbox is the inverse substitution box, derived from sbox at init time.
var invSbox [256]byte

func init() {
	for i, v := range sbox {
		invSbox[v] = byte(i)
	}
}

// xtime multiplies by x (i.e. {02}) in GF(2^8) with the AES polynomial.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// mul multiplies two elements of GF(2^8).
func mul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// Cipher is an expanded-key AES instance. It is safe for concurrent use:
// all methods are read-only with respect to the receiver.
type Cipher struct {
	block  cipher.Block // crypto/aes: the pad-generation path
	rounds int          // 10, 12 or 14
	rk     [60]uint32   // reference round keys, 4*(rounds+1) words
}

// New creates a Cipher from a 16-, 24- or 32-byte key.
func New(key []byte) (*Cipher, error) {
	switch len(key) {
	case 16, 24, 32:
	default:
		return nil, fmt.Errorf("aes: invalid key size %d (want 16, 24 or 32)", len(key))
	}
	nk := len(key) / 4
	c := &Cipher{rounds: nk + 6}
	n := 4 * (c.rounds + 1)
	for i := 0; i < nk; i++ {
		c.rk[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rcon := uint32(1)
	for i := nk; i < n; i++ {
		t := c.rk[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ rcon<<24
			rcon = uint32(xtime(byte(rcon)))
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		c.rk[i] = c.rk[i-nk] ^ t
	}
	block, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aes: %w", err)
	}
	c.block = block
	return c, nil
}

// MustNew is New but panics on an invalid key size. It is intended for
// static configuration where the key length is fixed by construction.
func MustNew(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// Rounds returns the number of rounds (10 for AES-128, 12 for AES-192,
// 14 for AES-256).
func (c *Cipher) Rounds() int { return c.rounds }

// state is the AES state laid out column-major: state[r+4*c] in FIPS
// terms is held here as s[4*col+row].
type state [16]byte

func (c *Cipher) addRoundKey(s *state, round int) {
	for col := 0; col < 4; col++ {
		w := c.rk[4*round+col]
		s[4*col+0] ^= byte(w >> 24)
		s[4*col+1] ^= byte(w >> 16)
		s[4*col+2] ^= byte(w >> 8)
		s[4*col+3] ^= byte(w)
	}
}

func subBytes(s *state) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func invSubBytes(s *state) {
	for i := range s {
		s[i] = invSbox[s[i]]
	}
}

// shiftRows rotates row r left by r positions.
func shiftRows(s *state) {
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

func invShiftRows(s *state) {
	s[5], s[9], s[13], s[1] = s[1], s[5], s[9], s[13]
	s[10], s[14], s[2], s[6] = s[2], s[6], s[10], s[14]
	s[15], s[3], s[7], s[11] = s[3], s[7], s[11], s[15]
}

func mixColumns(s *state) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		s[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		s[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		s[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}

func invMixColumns(s *state) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = mul(a0, 0x0e) ^ mul(a1, 0x0b) ^ mul(a2, 0x0d) ^ mul(a3, 0x09)
		s[4*c+1] = mul(a0, 0x09) ^ mul(a1, 0x0e) ^ mul(a2, 0x0b) ^ mul(a3, 0x0d)
		s[4*c+2] = mul(a0, 0x0d) ^ mul(a1, 0x09) ^ mul(a2, 0x0e) ^ mul(a3, 0x0b)
		s[4*c+3] = mul(a0, 0x0b) ^ mul(a1, 0x0d) ^ mul(a2, 0x09) ^ mul(a3, 0x0e)
	}
}

// Decrypt decrypts one 16-byte block from src into dst (inverse cipher).
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	var s state
	copy(s[:], src[:16])
	c.addRoundKey(&s, c.rounds)
	for round := c.rounds - 1; round > 0; round-- {
		invShiftRows(&s)
		invSubBytes(&s)
		c.addRoundKey(&s, round)
		invMixColumns(&s)
	}
	invShiftRows(&s)
	invSubBytes(&s)
	c.addRoundKey(&s, 0)
	copy(dst[:16], s[:])
}

// Encrypt encrypts one 16-byte block from src into dst. dst and src may
// overlap entirely; both must be at least BlockSize bytes.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	c.block.Encrypt(dst, src)
}

// EncryptBlocks encrypts len(src)/BlockSize consecutive 16-byte blocks
// from src into dst. Counter-mode pad generation uses it to produce all
// four chunks of a 64-byte block pad in one call. Partial trailing bytes
// are ignored; dst must hold at least as many whole blocks as src.
func (c *Cipher) EncryptBlocks(dst, src []byte) {
	n := len(src) / BlockSize * BlockSize
	if len(dst) < n {
		panic("aes: dst shorter than src blocks")
	}
	for off := 0; off < n; off += BlockSize {
		c.block.Encrypt(dst[off:off+BlockSize], src[off:off+BlockSize])
	}
}

// EncryptRef is the byte-oriented reference implementation of the forward
// cipher (SubBytes/ShiftRows/MixColumns/AddRoundKey exactly as FIPS-197
// writes them). The tests cross-check Encrypt against it.
func (c *Cipher) EncryptRef(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	var s state
	copy(s[:], src[:16])
	c.addRoundKey(&s, 0)
	for round := 1; round < c.rounds; round++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		c.addRoundKey(&s, round)
	}
	subBytes(&s)
	shiftRows(&s)
	c.addRoundKey(&s, c.rounds)
	copy(dst[:16], s[:])
}
