// Command benchjson converts `go test -bench` output into the committed
// BENCH_<n>.json trajectory format and compares two such files for
// regressions. It is self-contained on purpose: the repo pins its
// benchmark baseline without external tooling (no benchstat), so the
// comparison gate runs anywhere the Go toolchain does.
//
//	benchjson -in bench_output.txt -out BENCH_6.json
//	benchjson -compare BENCH_5.json BENCH_6.json -threshold 1.30
//
// Convert mode parses every benchmark result line (including custom
// b.ReportMetric columns) plus the pkg: headers, and stamps the file
// with a machine fingerprint (GOOS/GOARCH/CPU count/GOMAXPROCS/CPU
// model/Go version) so trajectory files from different hosts are never
// compared silently. Repeated lines for one package and name (go test
// -count N) fold into a single entry: every column holds the median of
// the samples except allocs/op, which holds the maximum, and ns/op also
// keeps the min/max spread and the sample count. Compare mode diffs the
// median ns/op for benchmarks present in both files, matched by package
// and by name without go test's -N GOMAXPROCS suffix, and exits nonzero
// if the ratio of medians passes the threshold;
// alloc counts are compared exactly (a new steady-state allocation is a
// regression at any magnitude).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// File is the persisted benchmark snapshot.
type File struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	Machine    Machine     `json:"machine"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Machine fingerprints the host the numbers came from.
type Machine struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	// GOMAXPROCS the benchmarks ran with, read from the -N suffix go
	// test appends to their names (no suffix means 1). Absent from
	// snapshots older than the field.
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// Benchmark is one benchmark's result: a single parsed line, or the
// fold of its repeated lines (per-column medians, worst allocs/op).
type Benchmark struct {
	Name       string  `json:"name"`    // e.g. BenchmarkPadInto-8
	Package    string  `json:"package"` // e.g. silentshredder/internal/ctr
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"` // the median when Samples > 1
	// Samples is the number of result lines folded into this entry;
	// absent (0) in single-sample snapshots, which means 1.
	Samples int `json:"samples,omitempty"`
	// NsMin and NsMax bound the ns/op samples (absent for one sample).
	NsMin       float64            `json:"ns_min,omitempty"`
	NsMax       float64            `json:"ns_max,omitempty"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	MBPerS      *float64           `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // custom b.ReportMetric units
}

func main() {
	in := flag.String("in", "bench_output.txt", "benchmark output to convert (`go test -bench` text)")
	out := flag.String("out", "", "write the JSON snapshot here (convert mode)")
	compare := flag.Bool("compare", false, "compare two snapshot files given as positional args")
	threshold := flag.Float64("threshold", 1.30, "compare: fail when new ns/op exceeds old by this ratio")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare OLD.json NEW.json [-threshold R]")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *threshold))
	case *out != "":
		if err := convert(*in, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchjson -in bench_output.txt -out BENCH_n.json | -compare OLD NEW")
		os.Exit(2)
	}
}

func convert(inPath, outPath string) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()

	snap := File{
		Schema:    "silentshredder-bench/v1",
		GoVersion: runtime.Version(),
		Machine: Machine{
			GOOS:     runtime.GOOS,
			GOARCH:   runtime.GOARCH,
			NumCPU:   runtime.NumCPU(),
			CPUModel: cpuModel(),
		},
	}

	pkg := ""
	var order []string // package+name keys in first-seen order
	samples := map[string][]Benchmark{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		b.Package = pkg
		if snap.Machine.GOMAXPROCS == 0 {
			_, snap.Machine.GOMAXPROCS = splitBenchName(b.Name)
		}
		key := pkg + " " + b.Name
		if _, seen := samples[key]; !seen {
			order = append(order, key)
		}
		samples[key] = append(samples[key], b)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, key := range order {
		snap.Benchmarks = append(snap.Benchmarks, fold(samples[key]))
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results found in %s", inPath)
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		a, b := snap.Benchmarks[i], snap.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(snap.Benchmarks), outPath)
	return nil
}

// parseLine parses one result line:
//
//	BenchmarkName-8  100  123.4 ns/op  5.00 MB/s  16 B/op  2 allocs/op  0.97 write_savings
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = ptr(v)
		case "allocs/op":
			b.AllocsPerOp = ptr(v)
		case "MB/s":
			b.MBPerS = ptr(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, b.NsPerOp > 0
}

func ptr(v float64) *float64 { return &v }

// fold merges the repeated result lines of one benchmark into a single
// entry: every column holds the median of its samples except allocs/op,
// which keeps the maximum so a zero-alloc pin fails if any sample
// allocates. ns/op also records the min/max spread and the sample count.
// A single line passes through unchanged, so one-shot transcripts keep
// their old snapshot shape.
func fold(runs []Benchmark) Benchmark {
	if len(runs) == 1 {
		return runs[0]
	}
	b := Benchmark{
		Name:       runs[0].Name,
		Package:    runs[0].Package,
		Iterations: runs[0].Iterations,
		NsPerOp:    *medianOf(runs, func(r Benchmark) *float64 { return &r.NsPerOp }),
		Samples:    len(runs),
		NsMin:      runs[0].NsPerOp,
		NsMax:      runs[0].NsPerOp,
		BytesPerOp: medianOf(runs, func(r Benchmark) *float64 { return r.BytesPerOp }),
		MBPerS:     medianOf(runs, func(r Benchmark) *float64 { return r.MBPerS }),
	}
	units := map[string]bool{}
	for _, r := range runs {
		b.NsMin = min(b.NsMin, r.NsPerOp)
		b.NsMax = max(b.NsMax, r.NsPerOp)
		if r.AllocsPerOp != nil && (b.AllocsPerOp == nil || *r.AllocsPerOp > *b.AllocsPerOp) {
			b.AllocsPerOp = r.AllocsPerOp
		}
		for unit := range r.Metrics {
			units[unit] = true
		}
	}
	for unit := range units {
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = *medianOf(runs, func(r Benchmark) *float64 {
			if v, ok := r.Metrics[unit]; ok {
				return &v
			}
			return nil
		})
	}
	return b
}

// medianOf returns the median of the non-nil values get reports across
// runs (the mean of the middle two for an even count), or nil if there
// are none.
func medianOf(runs []Benchmark, get func(Benchmark) *float64) *float64 {
	var vs []float64
	for _, r := range runs {
		if v := get(r); v != nil {
			vs = append(vs, *v)
		}
	}
	if len(vs) == 0 {
		return nil
	}
	slices.Sort(vs)
	n := len(vs)
	return ptr((vs[(n-1)/2] + vs[n/2]) / 2)
}

// spread returns a benchmark's ns/op min-to-max range as a fraction of
// its median (0 for a single sample).
func (b Benchmark) spread() float64 {
	if b.Samples < 2 {
		return 0
	}
	return (b.NsMax - b.NsMin) / b.NsPerOp
}

// cpuModel extracts the CPU model string from /proc/cpuinfo (best
// effort; empty on non-Linux hosts).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// baseBenchName strips the trailing -N GOMAXPROCS suffix go test
// appends ("BenchmarkPadInto-8" -> "BenchmarkPadInto"); names without a
// numeric suffix pass through unchanged.
func baseBenchName(name string) string {
	base, _ := splitBenchName(name)
	return base
}

// splitBenchName splits a benchmark name into its base name and the
// GOMAXPROCS go test ran it with. go test appends -N only when
// GOMAXPROCS is not 1, so a name without a numeric suffix ran with 1.
func splitBenchName(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

func compareFiles(oldPath, newPath string, threshold float64) int {
	oldF, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newF, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	return compareSnapshots(os.Stdout, oldF, newF, threshold)
}

// compareSnapshots diffs two loaded snapshots, writing the report to w,
// and returns the process exit code (0 clean, 1 regressions, 2 nothing
// to compare).
func compareSnapshots(w io.Writer, oldF, newF File, threshold float64) int {
	if oldF.Machine != newF.Machine {
		fmt.Fprintf(w, "note: machine fingerprints differ (%+v vs %+v); ns/op ratios are indicative only\n",
			oldF.Machine, newF.Machine)
	}

	// Match on the base name: snapshots taken at different GOMAXPROCS
	// name the same benchmark differently (BenchmarkPadInto on one CPU,
	// BenchmarkPadInto-2 on two), and the fingerprint note above already
	// flags the difference.
	oldByKey := map[string]Benchmark{}
	for _, b := range oldF.Benchmarks {
		oldByKey[b.Package+" "+baseBenchName(b.Name)] = b
	}

	regressions := 0
	compared := 0
	for _, nb := range newF.Benchmarks {
		ob, ok := oldByKey[nb.Package+" "+baseBenchName(nb.Name)]
		if !ok {
			continue
		}
		compared++
		ratio := nb.NsPerOp / ob.NsPerOp
		status := "ok"
		switch {
		case ratio > threshold:
			status = "REGRESSION"
			regressions++
		case ratio < 1/threshold:
			status = "improved"
		}
		fmt.Fprintf(w, "%-60s %12.1f -> %12.1f ns/op  %.2fx  %s%s\n", nb.Name, ob.NsPerOp, nb.NsPerOp, ratio, status, spreadNote(ob, nb))
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil && *nb.AllocsPerOp > allocsAllowed(*ob.AllocsPerOp) {
			fmt.Fprintf(w, "%-60s %12.0f -> %12.0f allocs/op        REGRESSION\n", nb.Name, *ob.AllocsPerOp, *nb.AllocsPerOp)
			regressions++
		}
	}
	fmt.Fprintf(w, "compared %d benchmarks, %d regressions (threshold %.2fx)\n", compared, regressions, threshold)
	return finishCompare(w, compared, regressions)
}

// spreadNote describes the sample counts and ns/op spreads behind a
// comparison of medians; it is empty when both sides are single samples.
func spreadNote(ob, nb Benchmark) string {
	if ob.Samples < 2 && nb.Samples < 2 {
		return ""
	}
	n := func(b Benchmark) int { return max(b.Samples, 1) }
	return fmt.Sprintf("  (n=%d/%d, spread %.0f%%/%.0f%%)", n(ob), n(nb), 100*ob.spread(), 100*nb.spread())
}

// allocsAllowed returns the highest allocs/op a new run may report
// without counting as a regression. Zero-alloc paths are pinned exactly
// (0 -> 1 always fails); nonzero baselines get one alloc of slack,
// because allocs/op is total-allocations/b.N and one-time lazy
// initialization amortized over a run-dependent b.N makes the rounded
// value flip by one between identical binaries. Baselines in the
// thousands (the parallel-sweep benchmarks, where one op is a whole
// multi-goroutine sweep) additionally get 0.1% relative slack:
// goroutine scheduling moves a few allocations between identical
// binaries, and a fixed ±1 would flap on exactly the benchmarks whose
// counts are largest. A real leak is per-op and blows through 0.1%
// immediately.
func allocsAllowed(base float64) float64 {
	if base == 0 {
		return 0
	}
	slack := base * 0.001
	if slack < 1 {
		slack = 1
	}
	return base + slack
}

func finishCompare(w io.Writer, compared, regressions int) int {
	if compared == 0 {
		fmt.Fprintln(w, "benchjson: no overlapping benchmarks to compare")
		return 2
	}
	if regressions > 0 {
		return 1
	}
	return 0
}
