package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"silentshredder/internal/sim"
	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// opKind names an apprt call the shred-churn task times itself.
type opKind int

const (
	opFirstTouch opKind = iota
	opZeroLoad
	opShredRange
	opFree
	opKinds
)

// opSpans collects host nanoseconds per timed apprt call. A nil
// *opSpans records nothing, so untraced runs pay no timer calls.
// Tasks on different cores append in turn, never at once: the
// scheduler's baton orders them.
type opSpans struct {
	ns [opKinds][]float64
}

func (s *opSpans) begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *opSpans) end(k opKind, start time.Time) {
	if s == nil {
		return
	}
	s.ns[k] = append(s.ns[k], float64(time.Since(start).Nanoseconds()))
}

// tracer observes one traced pair. A profiling tracer takes the CPU
// profile of the pair's simulation and the host time of every quantum
// and churn call; a span tracer attaches the machines' span recorders
// and reads each mode's simulated counters. The two never share a pair:
// the span recorder's own cost would swamp the profile. A nil *tracer
// traces nothing.
type tracer struct {
	profiling bool
	spans     bool

	profile  *os.File
	err      error
	quanta   []float64 // host µs per turn
	ops      *opSpans
	counters [2]map[string]float64
}

func (t *tracer) recordsSpans() bool { return t != nil && t.spans }

// opSpans returns where tasks record their timed calls: nil unless t
// profiles.
func (t *tracer) opSpans() *opSpans {
	if t == nil || !t.profiling {
		return nil
	}
	return t.ops
}

func (t *tracer) startProfile() {
	if t == nil || !t.profiling {
		return
	}
	f, err := os.CreateTemp("", "perfbench-cpu-*.pprof")
	if err != nil {
		t.err = fmt.Errorf("start CPU profile: %w", err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		t.err = fmt.Errorf("start CPU profile: %w", err)
		return
	}
	t.profile = f
}

func (t *tracer) stopProfile() {
	if t == nil || t.profile == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := t.profile.Close(); err != nil && t.err == nil {
		t.err = err
	}
}

func (t *tracer) observeTurns(turns []time.Duration) {
	if t == nil || !t.profiling {
		return
	}
	for _, d := range turns {
		t.quanta = append(t.quanta, float64(d.Nanoseconds())/1e3)
	}
}

// collect reads each mode's simulated counters and span aggregate.
func (t *tracer) collect(ms [2]*machine) {
	if !t.recordsSpans() {
		return
	}
	for mi, m := range ms {
		t.counters[mi] = simCounters(m.m)
	}
}

// simCounters returns one mode's per-layer simulated counters, named
// without the mode suffix.
func simCounters(m *sim.Machine) map[string]float64 {
	s := m.Snapshot()
	get := func(path string) float64 {
		v, _ := s.Lookup(path)
		return v
	}
	c := map[string]float64{
		"tlb.miss_rate":           tlbMissRate(s, len(m.Cores)),
		"kernel.page_faults":      get("kernel.page_faults"),
		"kernel.zero_cycles":      get("kernel.zero_cycles"),
		"hier.llc_misses":         get("hier.llc_misses"),
		"hier.page_invalidations": get("hier.page_invalidations"),
		"hier.l4_miss_rate":       get("hier.l4_miss_rate"),
		"ctrcache.miss_rate":      get("ctrcache.miss_rate"),
		"ctrcache.writebacks":     get("ctrcache.writebacks"),
		"integrity.hash_ops":      get("merkle.hash_ops"),
		"nvm.reads":               get("nvm.reads"),
		"nvm.writes":              get("nvm.writes"),
		"nvm.energy_pj":           get("nvm.energy_pj"),
		"nvm.max_wear":            get("nvm.max_wear"),
		"core.max_cycles":         float64(m.MaxCycles()),
		"core.ipc":                m.AggregateIPC(),
	}
	for _, n := range []string{"data_reads", "zero_fill_reads", "data_writes", "zeroing_writes", "shred_commands",
		"reencryptions", "mean_read_latency", "read_latency_p50", "read_latency_p99"} {
		c["memctrl."+n] = get("memctrl." + n)
	}
	agg := m.SpanRecorder().Aggregate()
	// A page clear is a zero span under the baseline and a shred span
	// under Silent Shredder; each mode has only one of the two.
	read, write := &agg.Total[span.OpRead], &agg.Total[span.OpWrite]
	clear := &agg.Total[span.OpZero]
	if clear.Count == 0 {
		clear = &agg.Total[span.OpShred]
	}
	mean := func(a *span.OpAgg, cyc uint64) float64 {
		if a.Count == 0 {
			return 0
		}
		return float64(cyc) / float64(a.Count)
	}
	c["span.read.mean_cyc"] = mean(read, read.Cycles)
	c["span.write.mean_cyc"] = mean(write, write.Cycles)
	c["span.clear.mean_cyc"] = mean(clear, clear.Cycles)
	c["span.clear.device_cyc"] = mean(clear, clear.Seg[span.LayerDevice])
	c["span.clear.integrity_cyc"] = mean(clear, clear.Seg[span.LayerIntegrity])
	c["span.clear.ctrcache_cyc"] = mean(clear, clear.Seg[span.LayerCtrCache])
	return c
}

// tlbMissRate is the miss rate over every core's TLB.
func tlbMissRate(s stats.Snapshot, cores int) float64 {
	var hits, misses float64
	for i := 0; i < cores; i++ {
		h, _ := s.Lookup(fmt.Sprintf("tlb%d.hits", i))
		m, _ := s.Lookup(fmt.Sprintf("tlb%d.misses", i))
		hits += h
		misses += m
	}
	if hits+misses == 0 {
		return 0
	}
	return misses / (hits + misses)
}

// tracedRun runs three pairs of one seed: untraced, profiled, and with
// span recorders, and reports the per-layer metrics. Both traced pairs
// must reproduce the untraced pair's simulated results bit for bit:
// tracing observes and never perturbs.
func tracedRun(w *workload, seed int64, out io.Writer) result {
	res := result{Metrics: map[string]metric{}}
	ref, err := newReference()
	if err != nil {
		res.tally(out, "reference loop", err)
		return res
	}
	plain := runPair(w, seed, nil, ref)
	res.tally(out, "untraced pair", plain.err)

	host := &tracer{profiling: true, ops: &opSpans{}}
	profiled := runPair(w, seed, host, nil)
	var ledger map[string]float64
	err = errors.Join(profiled.err, host.err)
	if err == nil && plain.err == nil {
		err = sameSimulation(plain, profiled)
	}
	if err == nil {
		ledger, err = profileLedger(host.profile.Name())
	}
	if host.profile != nil {
		os.Remove(host.profile.Name())
	}
	res.tally(out, "profiled pair", err)

	cyc := &tracer{spans: true}
	spanned := runPair(w, seed, cyc, nil)
	err = spanned.err
	if err == nil && plain.err == nil {
		err = sameSimulation(plain, spanned)
	}
	res.tally(out, "span pair", err)

	for _, l := range ledgerNames {
		res.set(l+".host_s", "s", ledger[l])
	}
	res.set("apprt.quantum_us.p50", "us", quantile(host.quanta, 0.5))
	res.set("apprt.quantum_us.p99", "us", quantile(host.quanta, 0.99))
	res.set("apprt.first_touch_ns.p50", "ns", quantile(host.ops.ns[opFirstTouch], 0.5))
	res.set("apprt.first_touch_ns.p99", "ns", quantile(host.ops.ns[opFirstTouch], 0.99))
	res.set("apprt.zero_load_ns.p50", "ns", quantile(host.ops.ns[opZeroLoad], 0.5))
	res.set("apprt.zero_load_ns.p99", "ns", quantile(host.ops.ns[opZeroLoad], 0.99))
	res.set("apprt.shred_range_us.p50", "us", quantile(host.ops.ns[opShredRange], 0.5)/1e3)
	res.set("apprt.free_us.p50", "us", quantile(host.ops.ns[opFree], 0.5)/1e3)
	overhead := 0.0
	if plain.run > 0 {
		overhead = profiled.run.Seconds() / plain.run.Seconds()
	}
	res.set("trace.overhead", "ratio", overhead)
	res.set("run_wall_s", "s", plain.run.Seconds())
	res.set("ref.speed", "ratio", plain.speed)
	for mi, mode := range modes {
		for _, c := range counterMetrics {
			res.set(c.name+"."+mode.name, c.unit, cyc.counters[mi][c.name])
		}
	}
	fmt.Fprintf(out, "%s seed=%d run_s untraced=%.4f profiled=%.4f span-recorded=%.4f quanta=%d\n",
		w.name, seed, plain.run.Seconds(), profiled.run.Seconds(), spanned.run.Seconds(), len(host.quanta))
	return res
}

// counterMetrics are the per-mode simulated counters with their units.
var counterMetrics = []struct{ name, unit string }{
	{"tlb.miss_rate", "ratio"},
	{"kernel.page_faults", "count"},
	{"kernel.zero_cycles", "cycles"},
	{"hier.llc_misses", "count"},
	{"hier.page_invalidations", "count"},
	{"hier.l4_miss_rate", "ratio"},
	{"memctrl.data_reads", "count"},
	{"memctrl.zero_fill_reads", "count"},
	{"memctrl.data_writes", "count"},
	{"memctrl.zeroing_writes", "count"},
	{"memctrl.shred_commands", "count"},
	{"memctrl.reencryptions", "count"},
	{"memctrl.mean_read_latency", "cycles"},
	{"memctrl.read_latency_p50", "cycles"},
	{"memctrl.read_latency_p99", "cycles"},
	{"ctrcache.miss_rate", "ratio"},
	{"ctrcache.writebacks", "count"},
	{"integrity.hash_ops", "count"},
	{"nvm.reads", "count"},
	{"nvm.writes", "count"},
	{"nvm.energy_pj", "pJ"},
	{"nvm.max_wear", "count"},
	{"core.max_cycles", "cycles"},
	{"core.ipc", "ratio"},
	{"span.read.mean_cyc", "cycles"},
	{"span.write.mean_cyc", "cycles"},
	{"span.clear.mean_cyc", "cycles"},
	{"span.clear.device_cyc", "cycles"},
	{"span.clear.integrity_cyc", "cycles"},
	{"span.clear.ctrcache_cyc", "cycles"},
}

// ledgerNames are the host-time ledger entries, in report order. other
// closes the ledger to the profile total.
var ledgerNames = []string{
	"cache", "hier", "mmu", "kernel", "apprt", "memctrl",
	"countercache", "ctr", "aes", "integrity",
	"nvm", "physmem", "workloads", "runtime", "other",
}

// ledgerEntry maps a profiled function to its ledger entry by package.
func ledgerEntry(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // generic instantiation: drop the type arguments
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "silentshredder/internal/workloads/"), pkg == "main", pkg == "math/rand":
		// The benchmark's own churn loop and the generators' random
		// streams are workload code.
		return "workloads"
	case strings.HasPrefix(pkg, "silentshredder/internal/"):
		name := strings.TrimPrefix(pkg, "silentshredder/internal/")
		for _, l := range ledgerNames {
			if name == l {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "crypto/") && strings.HasSuffix(pkg, "sha256"):
		return "integrity" // only the Merkle tree hashes
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profileLedger aggregates a CPU profile by package with the
// toolchain's pprof.
func profileLedger(path string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, err
	}
	top, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", abs).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(strings.NewReader(string(top)))
}

// parseTop aggregates `go tool pprof -top -unit=ms` text into ledger
// seconds. Every function's flat time is credited to its package's
// entry and other takes the rest of the profile total, so the entries
// sum to the total; a listing whose flat times exceed it is an error.
func parseTop(r io.Reader) (map[string]float64, error) {
	ledger := map[string]float64{}
	total := -1.0
	var sum float64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if i := slices.Index(f, "total"); i > 0 && f[0] == "Showing" {
			v, err := parseMs(f[i-1])
			if err != nil {
				return nil, err
			}
			total = v
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := parseMs(f[0])
		if err != nil {
			continue // the column header
		}
		ledger[ledgerEntry(strings.Join(f[5:], " "))] += flat
		sum += flat
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total < 0 {
		return nil, fmt.Errorf("pprof -top: no profile total")
	}
	if other := total - sum; other < -0.5e-3 {
		return nil, fmt.Errorf("pprof -top: flat times sum to %.3fs, past the %.3fs total", sum, total)
	} else if other > 0 {
		ledger["other"] += other
	}
	return ledger, nil
}

// parseMs parses a pprof millisecond value ("1234.50ms", "0") into
// seconds.
func parseMs(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	return v / 1e3, err
}
