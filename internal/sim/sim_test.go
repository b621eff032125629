package sim

import (
	"bytes"
	"errors"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
)

func testConfig(mode memctrl.Mode, zm kernel.ZeroMode) Config {
	cfg := ScaledConfig(mode, zm, 64)
	cfg.Hier.Cores = 2
	cfg.MemPages = 8192
	cfg.VerifyPlaintext = true
	return cfg
}

func TestTable1ConfigShape(t *testing.T) {
	cfg := Table1Config(memctrl.SilentShredder, kernel.ZeroShred)
	if cfg.Hier.Cores != 8 {
		t.Fatalf("cores = %d", cfg.Hier.Cores)
	}
	if cfg.Hier.L4.Size != 64<<20 {
		t.Fatalf("L4 = %d", cfg.Hier.L4.Size)
	}
	if cfg.MemCtrl.CounterCache.Size != 4<<20 {
		t.Fatalf("counter cache = %d", cfg.MemCtrl.CounterCache.Size)
	}
}

// A core count the directory's 64-bit sharer mask cannot hold is a typed
// configuration error, not a panic inside the hierarchy.
func TestNewRejectsCoreCounts(t *testing.T) {
	for _, cores := range []int{0, -1, 65, 100000} {
		cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
		cfg.Hier.Cores = cores
		m, err := New(cfg)
		var se *SizeError
		if m != nil || !errors.As(err, &se) || se.Field != "cores" || se.Value != cores {
			t.Errorf("cores=%d: New = %v, %v; want a *SizeError for cores", cores, m, err)
		}
	}
	cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
	cfg.Hier.Cores = 64
	if _, err := New(cfg); err != nil {
		t.Fatalf("cores=64: %v", err)
	}
}

func TestScaledConfigFloors(t *testing.T) {
	cfg := ScaledConfig(memctrl.Baseline, kernel.ZeroNonTemporal, 1<<30)
	if cfg.Hier.L1.Size < cfg.Hier.L1.Assoc*64 {
		t.Fatal("L1 scaled below one set")
	}
	if cfg.MemCtrl.CounterCache.Size < 4096 {
		t.Fatal("counter cache scaled below floor")
	}
	if got := ScaledConfig(memctrl.Baseline, kernel.ZeroNone, 0); got.Hier.L1.Size != 64<<10 {
		t.Fatal("scale<1 must behave as 1")
	}
}

func TestMachineEndToEnd(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	va := rt.Malloc(64 << 10)
	rt.StoreBytes(va, []byte("hello world"))
	got := rt.LoadBytes(va, 11)
	if !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("round trip = %q", got)
	}
	if m.Kernel.PageFaults() == 0 {
		t.Fatal("first touch must fault")
	}
	if m.TotalInstructions() == 0 || m.MaxCycles() == 0 {
		t.Fatal("timing not accounted")
	}
	if ipc := m.AggregateIPC(); ipc <= 0 || ipc > 1 {
		t.Fatalf("IPC = %v", ipc)
	}
}

func TestTwoCoresIsolatedProcesses(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt0, rt1 := m.Runtime(0), m.Runtime(1)
	va0 := rt0.Malloc(addr.PageSize)
	va1 := rt1.Malloc(addr.PageSize)
	rt0.Store(va0, 111)
	rt1.Store(va1, 222)
	if rt0.Load(va0) != 111 || rt1.Load(va1) != 222 {
		t.Fatal("per-process data corrupted")
	}
}

func TestMemsetSelectsNonTemporalForLargeRegions(t *testing.T) {
	m := MustNew(testConfig(memctrl.Baseline, kernel.ZeroNonTemporal))
	rt := m.Runtime(0)
	big := m.Cfg.Hier.L4.Size * 2
	va := rt.Malloc(big)
	writesBefore := m.MC.DataWrites()
	rt.Memset(va, 0xAA, big)
	// NT stores write straight to NVM: data writes beyond zeroing.
	if m.MC.DataWrites() == writesBefore {
		t.Fatal("large memset must use non-temporal stores")
	}
	got := rt.LoadBytes(va+12345, 4)
	if !bytes.Equal(got, []byte{0xAA, 0xAA, 0xAA, 0xAA}) {
		t.Fatalf("memset contents = %v", got)
	}
}

func TestShredMachineAvoidsZeroWrites(t *testing.T) {
	ss := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	bl := MustNew(testConfig(memctrl.Baseline, kernel.ZeroNonTemporal))

	run := func(m *Machine) uint64 {
		rt := m.Runtime(0)
		va := rt.Malloc(64 * addr.PageSize)
		for i := 0; i < 64; i++ {
			rt.Store(va+addr.Virt(i*addr.PageSize), uint64(i))
		}
		m.Hier.FlushAll()
		m.MC.Flush()
		return m.Dev.Writes()
	}
	ssWrites, blWrites := run(ss), run(bl)
	if ssWrites*2 >= blWrites {
		t.Fatalf("SS writes %d vs baseline %d: expected large savings", ssWrites, blWrites)
	}
}

func TestResetStatsPreservesState(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	va := rt.Malloc(addr.PageSize)
	rt.Store(va, 42)
	m.ResetStats()
	if m.TotalInstructions() != 0 || m.Kernel.PageFaults() != 0 {
		t.Fatal("stats not cleared")
	}
	if rt.Load(va) != 42 {
		t.Fatal("architectural state lost by ResetStats")
	}
}

func TestRegistryExposesComponents(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	rt.Store(rt.Malloc(addr.PageSize), 1)
	r := m.Registry()
	for _, path := range []string{
		"core0.instructions", "memctrl.shred_commands", "kernel.page_faults",
		"nvm.writes", "ctrcache.misses", "hier.llc_misses", "tlb0.misses",
	} {
		if _, ok := r.Lookup(path); !ok {
			t.Errorf("registry missing %s", path)
		}
	}
}

func TestShredRangeSyscallThroughRuntime(t *testing.T) {
	m := MustNew(testConfig(memctrl.SilentShredder, kernel.ZeroShred))
	rt := m.Runtime(0)
	va := rt.Malloc(4 * addr.PageSize)
	rt.StoreBytes(va, bytes.Repeat([]byte{9}, 128))
	rt.ShredRange(va, 4)
	if got := rt.LoadBytes(va, 128); !bytes.Equal(got, make([]byte, 128)) {
		t.Fatal("ShredRange did not zero the region")
	}
}

func TestBadConfigRejected(t *testing.T) {
	cfg := testConfig(memctrl.Baseline, kernel.ZeroNonTemporal)
	cfg.MemCtrl.Key = []byte("bad")
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for bad key")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic")
		}
	}()
	MustNew(cfg)
}

func TestTimingOnlyMode(t *testing.T) {
	cfg := testConfig(memctrl.SilentShredder, kernel.ZeroShred)
	cfg.StoreData = false
	cfg.VerifyPlaintext = false
	m := MustNew(cfg)
	rt := m.Runtime(0)
	va := rt.Malloc(16 * addr.PageSize)
	for i := 0; i < 16; i++ {
		rt.Store(va+addr.Virt(i*addr.PageSize), 7)
	}
	if m.Kernel.PageFaults() != 16 {
		t.Fatalf("faults = %d", m.Kernel.PageFaults())
	}
	if m.Img.Enabled() {
		t.Fatal("image must be disabled")
	}
}
