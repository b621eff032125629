package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkPadInto-8   13528038    88.53 ns/op   722.94 MB/s   0 B/op   0 allocs/op")
	if !ok {
		t.Fatal("well-formed line must parse")
	}
	if b.Name != "BenchmarkPadInto-8" || b.Iterations != 13528038 || b.NsPerOp != 88.53 {
		t.Fatalf("parsed %+v", b)
	}
	if b.MBPerS == nil || *b.MBPerS != 722.94 || b.BytesPerOp == nil || *b.BytesPerOp != 0 || b.AllocsPerOp == nil || *b.AllocsPerOp != 0 {
		t.Fatalf("unit columns lost: %+v", b)
	}

	// Custom b.ReportMetric columns land in Metrics.
	b, ok = parseLine("BenchmarkFig8-8   10   1200 ns/op   0.9700 write_savings")
	if !ok || b.Metrics["write_savings"] != 0.97 {
		t.Fatalf("custom metric lost: %+v ok=%v", b, ok)
	}

	for _, bad := range []string{
		"BenchmarkX-8",                  // too few fields
		"BenchmarkX-8 notanint 5 ns/op", // bad iteration count
		"BenchmarkX-8 10 garbage ns/op", // bad value
		"BenchmarkX-8 10 5 B/op",        // no ns/op at all
		"goos: linux",                   // not a result line
	} {
		if _, ok := parseLine(bad); ok {
			t.Errorf("parseLine(%q) must reject", bad)
		}
	}
}

func TestConvertAndCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	raw := write("bench.txt", `goos: linux
pkg: silentshredder/internal/ctr
BenchmarkPadInto-8   1000   100.0 ns/op   0 B/op   0 allocs/op
BenchmarkCachedPadHit-8   2000   50.0 ns/op   0 B/op   0 allocs/op
pkg: silentshredder/internal/nvm
BenchmarkReadBlock-8   500   400.0 ns/op   0 B/op   0 allocs/op
`)
	base := filepath.Join(dir, "base.json")
	if err := convert(raw, base); err != nil {
		t.Fatal(err)
	}
	f, err := load(base)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != "silentshredder-bench/v1" || len(f.Benchmarks) != 3 {
		t.Fatalf("snapshot = %+v", f)
	}
	// Sorted by package then name; packages must survive the round trip.
	if f.Benchmarks[0].Package != "silentshredder/internal/ctr" || f.Benchmarks[0].Name != "BenchmarkCachedPadHit-8" {
		t.Fatalf("first benchmark = %+v", f.Benchmarks[0])
	}

	// Identical files compare clean.
	if code := compareFiles(base, base, 1.30); code != 0 {
		t.Fatalf("self-compare exit = %d", code)
	}

	// A 2x ns/op slowdown and an alloc increase must both fail the gate.
	slow := write("slow.txt", `pkg: silentshredder/internal/ctr
BenchmarkPadInto-8   1000   200.0 ns/op   0 B/op   0 allocs/op
BenchmarkCachedPadHit-8   2000   50.0 ns/op   16 B/op   1 allocs/op
`)
	slowJSON := filepath.Join(dir, "slow.json")
	if err := convert(slow, slowJSON); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(base, slowJSON, 1.30); code != 1 {
		t.Fatalf("regression compare exit = %d, want 1", code)
	}
	// With a loose threshold the slowdown passes but the alloc increase
	// must still fail: allocations are compared exactly.
	if code := compareFiles(base, slowJSON, 3.0); code != 1 {
		t.Fatalf("alloc regression exit = %d, want 1", code)
	}

	// Nonzero alloc baselines get one alloc of rounding slack (allocs/op
	// is total/b.N, so one-time init flips the rounded value by one
	// between identical binaries); two extra allocs still fail.
	allocBase := write("allocbase.txt", `pkg: silentshredder/internal/sim
BenchmarkProfileRun-8   150   7000.0 ns/op   700 B/op   285 allocs/op
`)
	allocBaseJSON := filepath.Join(dir, "allocbase.json")
	if err := convert(allocBase, allocBaseJSON); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		allocs string
		want   int
	}{
		{"286", 0},
		{"287", 1},
	} {
		jitter := write("jitter.txt", `pkg: silentshredder/internal/sim
BenchmarkProfileRun-8   151   7000.0 ns/op   700 B/op   `+tc.allocs+` allocs/op
`)
		jitterJSON := filepath.Join(dir, "jitter.json")
		if err := convert(jitter, jitterJSON); err != nil {
			t.Fatal(err)
		}
		if code := compareFiles(allocBaseJSON, jitterJSON, 1.30); code != tc.want {
			t.Fatalf("285 -> %s allocs/op compare exit = %d, want %d", tc.allocs, code, tc.want)
		}
	}

	// Error paths: empty input, missing file, disjoint benchmark sets.
	empty := write("empty.txt", "goos: linux\n")
	if err := convert(empty, filepath.Join(dir, "e.json")); err == nil {
		t.Fatal("empty transcript must error")
	}
	if code := compareFiles(base, filepath.Join(dir, "missing.json"), 1.30); code != 2 {
		t.Fatal("missing file must exit 2")
	}
	other := write("other.txt", `pkg: elsewhere
BenchmarkUnrelated-8   10   1.0 ns/op
`)
	otherJSON := filepath.Join(dir, "other.json")
	if err := convert(other, otherJSON); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(base, otherJSON, 1.30); code != 2 {
		t.Fatal("no overlapping benchmarks must exit 2")
	}
}

// TestNoiseWaivers: a waived benchmark may exceed the global threshold
// up to its documented limit — reported as visibly waived, never
// silently green — while unwaived benchmarks and the waiver's own limit
// still gate. Matching strips the -N GOMAXPROCS suffix, since committed
// snapshots carry it inconsistently (BENCH_9.json has the suite-level
// Fig10 name bare).
func TestNoiseWaivers(t *testing.T) {
	if w, ok := noiseWaivers["BenchmarkFig10ReadSpeedup"]; !ok || w.Threshold < 1.30 {
		t.Fatalf("Fig10 waiver missing or tighter than the default gate: %+v", w)
	}
	snap := func(fig10, other float64) File {
		return File{Benchmarks: []Benchmark{
			{Name: "BenchmarkFig10ReadSpeedup", Package: "silentshredder", NsPerOp: fig10},
			{Name: "BenchmarkPadInto-8", Package: "silentshredder/internal/ctr", NsPerOp: other},
		}}
	}
	base := snap(100, 100)
	run := func(newF File) (int, string) {
		var buf strings.Builder
		code := compareSnapshots(&buf, base, newF, 1.30)
		return code, buf.String()
	}

	// 1.50x on the waived benchmark: over the 1.30 gate, under the 1.60
	// waiver — passes, and the report says so out loud.
	code, out := run(snap(150, 100))
	if code != 0 {
		t.Fatalf("waived 1.50x exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "ok (waived: ") || !strings.Contains(out, "bandwidth steal") {
		t.Fatalf("waived run not visibly waived:\n%s", out)
	}

	// Inside the global threshold the waiver text must NOT appear: plain ok.
	if code, out = run(snap(110, 100)); code != 0 || strings.Contains(out, "waived") {
		t.Fatalf("in-threshold run = %d, waiver text leaked:\n%s", code, out)
	}

	// Past the waiver's own limit it is a regression like any other.
	if code, out = run(snap(170, 100)); code != 1 || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("1.70x exit = %d, want 1:\n%s", code, out)
	}

	// The waiver is per-benchmark: the same ratio on an unwaived
	// benchmark fails.
	if code, out = run(snap(100, 150)); code != 1 {
		t.Fatalf("unwaived 1.50x exit = %d, want 1:\n%s", code, out)
	}

	// Suffix form matches the same waiver entry.
	suffixBase := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkFig10ReadSpeedup-8", Package: "silentshredder", NsPerOp: 100}}}
	suffixNew := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkFig10ReadSpeedup-8", Package: "silentshredder", NsPerOp: 150}}}
	var buf strings.Builder
	if code := compareSnapshots(&buf, suffixBase, suffixNew, 1.30); code != 0 {
		t.Fatalf("suffixed waived benchmark exit = %d, want 0\n%s", code, buf.String())
	}
}

func TestBaseBenchName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkPadInto-8":        "BenchmarkPadInto",
		"BenchmarkPadInto-16":       "BenchmarkPadInto",
		"BenchmarkFig10ReadSpeedup": "BenchmarkFig10ReadSpeedup",
		"BenchmarkShred-To-Zero":    "BenchmarkShred-To-Zero", // non-numeric suffix kept
	} {
		if got := baseBenchName(in); got != want {
			t.Errorf("baseBenchName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAllocsAllowed(t *testing.T) {
	cases := []struct {
		base, newVal float64
		ok           bool
	}{
		{0, 0, true},
		{0, 1, false}, // zero-alloc paths are pinned exactly
		{2, 3, true},  // one alloc of rounding slack
		{2, 4, false}, // two is a real new allocation
		{285, 286, true},
		{285, 288, false},
		{8829, 8833, true},  // sweep benchmark: 0.1% relative slack covers scheduling jitter
		{8829, 8839, false}, // but a per-op leak still fails
		{29274, 29276, true},
	}
	for _, c := range cases {
		if got := c.newVal <= allocsAllowed(c.base); got != c.ok {
			t.Errorf("allocsAllowed(%v) vs %v: pass=%v, want %v", c.base, c.newVal, got, c.ok)
		}
	}
}

// Snapshots from hosts with different GOMAXPROCS name the same benchmark
// with different -N suffixes (or none, at 1). Compare must still pair
// them, and convert must record the GOMAXPROCS the suffix shows.
func TestCompareAcrossGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(name, content string) (string, File) {
		raw := filepath.Join(dir, name+".txt")
		if err := os.WriteFile(raw, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, name+".json")
		if err := convert(raw, out); err != nil {
			t.Fatal(err)
		}
		f, err := load(out)
		if err != nil {
			t.Fatal(err)
		}
		return out, f
	}
	oneCPU, oneF := snapshot("one", `pkg: silentshredder/internal/ctr
BenchmarkPadInto   1000   100.0 ns/op   0 B/op   0 allocs/op
BenchmarkCachedPadHit-1   2000   50.0 ns/op   0 B/op   0 allocs/op
`)
	twoCPU, twoF := snapshot("two", `pkg: silentshredder/internal/ctr
BenchmarkPadInto-2   1000   110.0 ns/op   0 B/op   0 allocs/op
BenchmarkCachedPadHit-2   2000   45.0 ns/op   0 B/op   0 allocs/op
`)
	if oneF.Machine.GOMAXPROCS != 1 || twoF.Machine.GOMAXPROCS != 2 {
		t.Fatalf("GOMAXPROCS fingerprints = %d, %d; want 1, 2", oneF.Machine.GOMAXPROCS, twoF.Machine.GOMAXPROCS)
	}
	var buf strings.Builder
	if code := compareSnapshots(&buf, oneF, twoF, 1.30); code != 0 {
		t.Fatalf("1-CPU vs 2-CPU compare exit = %d, want 0\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "compared 2 benchmarks, 0 regressions") {
		t.Fatalf("suffixes kept the snapshots apart:\n%s", buf.String())
	}
	// A regression across the suffix change is still caught.
	slow, _ := snapshot("slow", `pkg: silentshredder/internal/ctr
BenchmarkPadInto-2   1000   200.0 ns/op   0 B/op   0 allocs/op
`)
	if code := compareFiles(oneCPU, slow, 1.30); code != 1 {
		t.Fatalf("2x slowdown across GOMAXPROCS exit = %d, want 1", code)
	}
	if code := compareFiles(twoCPU, oneCPU, 1.30); code != 0 {
		t.Fatalf("2-CPU vs 1-CPU compare exit = %d, want 0", code)
	}
}
