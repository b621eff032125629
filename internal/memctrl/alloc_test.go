package memctrl

import (
	"bytes"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/integrity"
	"silentshredder/internal/nvm"
	"silentshredder/internal/physmem"
)

// TestSteadyStateReadZeroAllocs pins the controller's block-read path
// allocation-free once the touched pages exist: reads are the hottest
// simulator operation, and an allocation here shows up millions of times
// over an experiments sweep.
func TestSteadyStateReadZeroAllocs(t *testing.T) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	mc, err := New(DefaultConfig(SilentShredder), dev, img)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xa5}, addr.BlockSize)
	for i := 0; i < 64; i++ {
		a := addr.PageNum(i % 4).BlockAddr(i % addr.BlocksPerPage)
		img.Write(a, data)
		mc.WriteBlock(a)
	}
	buf := make([]byte, addr.BlockSize)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		mc.ReadBlock(addr.PageNum(i%4).BlockAddr(i%addr.BlocksPerPage), buf)
		i++
	}); n != 0 {
		t.Fatalf("steady-state ReadBlock allocates %v per call, want 0", n)
	}
}

// TestSteadyStateWriteZeroAllocs pins the block-write path (image store
// plus controller writeback) allocation-free over already-touched pages.
func TestSteadyStateWriteZeroAllocs(t *testing.T) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	mc, err := New(DefaultConfig(SilentShredder), dev, img)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5a}, addr.BlockSize)
	for i := 0; i < 64; i++ {
		a := addr.PageNum(i % 4).BlockAddr(i % addr.BlocksPerPage)
		img.Write(a, data)
		mc.WriteBlock(a)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		a := addr.PageNum(i % 4).BlockAddr(i % addr.BlocksPerPage)
		data[0] = byte(i)
		img.Write(a, data)
		mc.WriteBlock(a)
		i++
	}); n != 0 {
		t.Fatalf("steady-state WriteBlock allocates %v per call, want 0", n)
	}
}

// BenchmarkReadBlockData measures the steady-state encrypted data read
// (counter fetch, pad generation, XOR) over a warm working set.
func BenchmarkReadBlockData(b *testing.B) {
	dev := nvm.New(nvm.DefaultConfig())
	img := physmem.New(true)
	mc, _ := New(DefaultConfig(SilentShredder), dev, img)
	data := bytes.Repeat([]byte{0xa5}, addr.BlockSize)
	for i := 0; i < 16*addr.BlocksPerPage; i++ {
		a := addr.PageNum(i / addr.BlocksPerPage).BlockAddr(i % addr.BlocksPerPage)
		img.Write(a, data)
		mc.WriteBlock(a)
	}
	buf := make([]byte, addr.BlockSize)
	b.SetBytes(addr.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.ReadBlock(addr.PageNum(i%16).BlockAddr(i%addr.BlocksPerPage), buf)
	}
}

// BenchmarkZeroPageDirectCachedMerkle measures the baseline NT-zero page
// clear under the lazy integrity engine: 64 encrypted zero-block writes,
// each of which bumps the page's counter block and re-parks its Merkle
// leaf in the dirty cache. The loop cycles over four dirty caches' worth
// of pages, so a full cache forces a coalesced propagation every
// DefaultDirtyCacheNodes pages inside the timed region, as the page
// churn of the shred-churn workload does. Each op therefore includes its
// share of the host leaf hash and the ancestor rehash done at
// propagation, not just the parking.
func BenchmarkZeroPageDirectCachedMerkle(b *testing.B) {
	dev := nvm.New(nvm.DefaultConfig())
	cfg := DefaultConfig(Baseline)
	cfg.Integrity = true
	cfg.IntegrityCfg.Engine = integrity.EngineCached
	mc, err := New(cfg, dev, physmem.New(true))
	if err != nil {
		b.Fatal(err)
	}
	const pages = 4 * integrity.DefaultDirtyCacheNodes
	b.SetBytes(addr.PageSize)
	for i := 0; i < b.N; i++ {
		mc.ZeroPageDirect(addr.PageNum(i % pages))
	}
}
