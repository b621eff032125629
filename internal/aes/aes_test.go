package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C example vectors.
func TestFIPS197Vectors(t *testing.T) {
	cases := []struct {
		name, key, pt, ct string
	}{
		{
			"AES-128 C.1",
			"000102030405060708090a0b0c0d0e0f",
			"00112233445566778899aabbccddeeff",
			"69c4e0d86a7b0430d8cdb78070b4c55a",
		},
		{
			"AES-192 C.2",
			"000102030405060708090a0b0c0d0e0f1011121314151617",
			"00112233445566778899aabbccddeeff",
			"dda97ca4864cdfe06eaf70a0ec0d7191",
		},
		{
			"AES-256 C.3",
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			"00112233445566778899aabbccddeeff",
			"8ea2b7ca516745bfeafc49904b496089",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(unhex(t, tc.key))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 16)
			c.Encrypt(got, unhex(t, tc.pt))
			if want := unhex(t, tc.ct); !bytes.Equal(got, want) {
				t.Fatalf("Encrypt = %x, want %x", got, want)
			}
			ref := make([]byte, 16)
			c.EncryptRef(ref, unhex(t, tc.pt))
			if want := unhex(t, tc.ct); !bytes.Equal(ref, want) {
				t.Fatalf("EncryptRef = %x, want %x", ref, want)
			}
			back := make([]byte, 16)
			c.Decrypt(back, got)
			if want := unhex(t, tc.pt); !bytes.Equal(back, want) {
				t.Fatalf("Decrypt = %x, want %x", back, want)
			}
		})
	}
}

func TestRounds(t *testing.T) {
	for _, tc := range []struct{ keyLen, rounds int }{{16, 10}, {24, 12}, {32, 14}} {
		c := MustNew(make([]byte, tc.keyLen))
		if c.Rounds() != tc.rounds {
			t.Errorf("key %d bytes: Rounds = %d, want %d", tc.keyLen, c.Rounds(), tc.rounds)
		}
	}
}

func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 31, 33} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key: want error", n)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on bad key size")
		}
	}()
	MustNew(make([]byte, 3))
}

// Property: our cipher agrees with crypto/aes for random keys and blocks,
// in both directions and for all three key sizes.
func TestMatchesStdlibProperty(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		f := func(keySeed, block [16]byte, pad [16]byte) bool {
			key := make([]byte, keyLen)
			copy(key, keySeed[:])
			copy(key[16:], pad[:]) // fills 24/32-byte keys; no-op for 16
			ours := MustNew(key)
			std, err := stdaes.NewCipher(key)
			if err != nil {
				return false
			}
			got := make([]byte, 16)
			want := make([]byte, 16)
			ours.Encrypt(got, block[:])
			std.Encrypt(want, block[:])
			if !bytes.Equal(got, want) {
				return false
			}
			ours.Decrypt(got, block[:])
			std.Decrypt(want, block[:])
			return bytes.Equal(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("keyLen %d: %v", keyLen, err)
		}
	}
}

// Property: Decrypt inverts Encrypt.
func TestRoundTripProperty(t *testing.T) {
	f := func(key, block [16]byte) bool {
		c := MustNew(key[:])
		ct := make([]byte, 16)
		pt := make([]byte, 16)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Encrypting in place must work (dst == src).
func TestInPlace(t *testing.T) {
	c := MustNew(make([]byte, 16))
	buf := []byte("0123456789abcdef")
	want := make([]byte, 16)
	c.Encrypt(want, buf)
	c.Encrypt(buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place encryption differs")
	}
}

func TestShortBufferPanics(t *testing.T) {
	c := MustNew(make([]byte, 16))
	for _, fn := range []func(){
		func() { c.Encrypt(make([]byte, 16), make([]byte, 8)) },
		func() { c.Encrypt(make([]byte, 8), make([]byte, 16)) },
		func() { c.Decrypt(make([]byte, 16), make([]byte, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic on short buffer")
				}
			}()
			fn()
		}()
	}
}

// GF(2^8) arithmetic sanity: mul must be commutative with identity 1 and
// match xtime for multiplication by 2.
func TestGFMulProperty(t *testing.T) {
	f := func(a, b byte) bool {
		return mul(a, b) == mul(b, a) && mul(a, 1) == a && mul(a, 2) == xtime(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c := MustNew(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

// Property: the crypto/aes pad path agrees with the byte-oriented
// FIPS-197 reference for every key size.
func TestEncryptMatchesReferenceProperty(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		f := func(keySeed, pad, block [16]byte) bool {
			key := make([]byte, keyLen)
			copy(key, keySeed[:])
			copy(key[16:], pad[:])
			c := MustNew(key)
			fast := make([]byte, 16)
			ref := make([]byte, 16)
			c.Encrypt(fast, block[:])
			c.EncryptRef(ref, block[:])
			return bytes.Equal(fast, ref)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("keyLen %d: %v", keyLen, err)
		}
	}
}

func BenchmarkEncryptBlockRef(b *testing.B) {
	c := MustNew(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.EncryptRef(buf, buf)
	}
}
