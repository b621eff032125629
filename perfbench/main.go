// Command perfbench is the repository's benchmark. It runs one workload
// on the paper-scale machine under the baseline controller (non-temporal
// zeroing) and under Silent Shredder, repeating the pair for the given
// number of seconds, checks every output, and prints the end-to-end
// metrics, or with -trace 1 the per-layer metrics, as one JSON line.
//
//	go run . -workload spec-mcf -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"silentshredder/internal/sim"
)

// setupReps is how many times a run sets both machines up before its
// first timed pair; setup_s is the median of these set-ups.
const setupReps = 20

// minPairs is the fewest pairs a run measures, so that run_s is a
// median of at least three samples.
const minPairs = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in. It returns 0
// when it printed a result (whether or not the outputs were correct)
// and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: spec-mcf, graph-pagerank or shred-churn")
	seed := fs.Int64("seed", 0, "input seed; 0 gives exper's per-core seeds")
	seconds := fs.Float64("seconds", 10, "host seconds to keep repeating the baseline/Silent Shredder pair")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload spec-mcf|graph-pagerank|shred-churn, -seed >= 0, -seconds > 0, -trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var res result
	if *trace == 1 {
		res = tracedRun(w, *seed, stdout)
	} else {
		res = measure(w, *seed, *seconds, stdout)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts a finished pair, printing the reason it failed.
func (r *result) tally(out io.Writer, label string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(out, "FAILED %s: %v\n", label, err)
	}
	r.Correct = r.Failed == 0
}

// set records a metric. A value that is not a finite number marks the
// output incorrect: JSON cannot carry it and no correct run produces it.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Correct = false
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// pair is one baseline + Silent Shredder execution of a workload.
type pair struct {
	// run is the simulation's wall time, reference samples excluded.
	run time.Duration
	// speed rescales the pair's host times to a calm host (see
	// reference); it is 1 when no reference was sampled.
	speed float64
	alloc uint64 // host bytes allocated while simulating
	instr uint64 // simulated instructions, both modes
	paper paperMetrics
	dump  [2]string // every registry statistic of each mode
	err   error
}

// paperMetrics are Figures 8-11, computed as exper.Compare does.
type paperMetrics struct {
	WriteSavings, ReadSavings, ReadSpeedup, RelativeIPC float64
}

func comparePaper(bl, ss *sim.Machine) paperMetrics {
	var p paperMetrics
	if w := bl.Dev.Writes(); w > 0 {
		p.WriteSavings = 1 - float64(ss.Dev.Writes())/float64(w)
	}
	if tot := ss.MC.DataReads() + ss.MC.ZeroFillReads(); tot > 0 {
		p.ReadSavings = float64(ss.MC.ZeroFillReads()) / float64(tot)
	}
	if l := ss.MC.MeanReadLatency(); l > 0 {
		p.ReadSpeedup = bl.MC.MeanReadLatency() / l
	}
	if ipc := bl.AggregateIPC(); ipc > 0 {
		p.RelativeIPC = ss.AggregateIPC() / ipc
	}
	return p
}

// setUpPair builds both modes' machines and their inputs.
func setUpPair(w *workload, seed int64, tr *tracer) ([2]*machine, error) {
	var ms [2]*machine
	for mi := range modes {
		m, err := w.setUp(mi, seed, tr)
		if err != nil {
			return ms, err
		}
		ms[mi] = m
	}
	return ms, nil
}

// runPair sets up and simulates both modes, then checks the outputs
// outside the timed region. tr, when non-nil, traces the pair; ref,
// when non-nil, is sampled before, between and after the modes and
// every refEvery within them.
func runPair(w *workload, seed int64, tr *tracer, ref *reference) (p pair) {
	ms, err := setUpPair(w, seed, tr)
	if err != nil {
		p.err = err
		return p
	}
	// Collect the previous pair's garbage first, so every pair starts
	// from the same heap and its collections fall alike.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.startProfile()
	start := time.Now()
	ref.sample()
	for mi, m := range ms {
		turns, err := m.simulate(ref)
		if err != nil {
			tr.stopProfile()
			ref.take() // drop the failed pair's samples
			p.err = fmt.Errorf("%s: %w", modes[mi].name, err)
			return p
		}
		tr.observeTurns(turns)
		ref.sample()
	}
	wall := time.Since(start)
	tr.stopProfile()
	t := ref.take()
	p.run, p.speed = wall-t.spent, t.speed()
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc

	var errs []error
	for mi, m := range ms {
		p.instr += m.m.TotalInstructions()
		p.dump[mi] = m.m.Snapshot().Dump()
		if err := m.check(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", modes[mi].name, err))
		}
	}
	p.paper = comparePaper(ms[0].m, ms[1].m)
	tr.collect(ms)
	p.err = errors.Join(errs...)
	return p
}

// sameSimulation reports how two pairs of one seed differ in simulated
// results; the simulator is deterministic, so any difference is a bug.
func sameSimulation(a, b pair) error {
	if a.paper != b.paper || a.instr != b.instr {
		return fmt.Errorf("paper metrics differ: %+v vs %+v", a.paper, b.paper)
	}
	for mi := range a.dump {
		if a.dump[mi] != b.dump[mi] {
			return fmt.Errorf("%s statistics differ between repeats of one seed", modes[mi].name)
		}
	}
	return nil
}

// measure repeats the pair, tracing off, until seconds have passed and
// reports the end-to-end metrics: host times as medians over the pairs,
// each rescaled to a calm host by the reference loop sampled beside it,
// and simulated ones from the first pair (every repeat must match it).
func measure(w *workload, seed int64, seconds float64, out io.Writer) result {
	res := result{Metrics: map[string]metric{}}
	ref, err := newReference()
	if err != nil {
		res.tally(out, "reference loop", err)
		return res
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Collect earlier garbage first, so every set-up starts from
		// the same heap and no collection falls in it by chance.
		runtime.GC()
		ref.sample()
		_, err := setUpPair(w, seed, nil)
		if err != nil {
			res.tally(out, "set-up", err)
			return res
		}
		ref.sample()
		setups = append(setups, ref.take().rescaled)
	}
	var pairs []pair
	start := time.Now()
	for len(pairs) < minPairs || time.Since(start).Seconds() < seconds {
		p := runPair(w, seed, nil, ref)
		if p.err == nil && len(pairs) > 0 {
			p.err = sameSimulation(pairs[0], p)
		}
		res.tally(out, fmt.Sprintf("%s pair %d", w.name, len(pairs)), p.err)
		fmt.Fprintf(out, "pair run_s=%.4f wall_s=%.4f speed=%.3f alloc_mb=%.2f\n",
			p.run.Seconds()*p.speed, p.run.Seconds(), p.speed, float64(p.alloc)/1e6)
		if p.err == nil {
			pairs = append(pairs, p)
		}
		if res.Failed > 0 && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	if len(pairs) == 0 {
		return res
	}
	var runs, allocs []float64
	for _, p := range pairs {
		runs = append(runs, p.run.Seconds()*p.speed)
		allocs = append(allocs, float64(p.alloc))
	}
	runS := median(runs)
	first := pairs[0]
	res.set("setup_s", "s", median(setups))
	res.set("run_s", "s", runS)
	res.set("sim_mips", "MIPS", float64(first.instr)/runS/1e6)
	res.set("alloc_mb", "MB", median(allocs)/1e6)
	res.set("peak_rss_mb", "MB", peakRSS()/1e6)
	res.set("write_savings", "ratio", first.paper.WriteSavings)
	res.set("read_savings", "ratio", first.paper.ReadSavings)
	res.set("read_speedup", "ratio", first.paper.ReadSpeedup)
	res.set("relative_ipc", "ratio", first.paper.RelativeIPC)
	fmt.Fprintf(out, "%s seed=%d pairs=%d setup_s=%.4f run_s=%.4f sim_mips=%.4f\n",
		w.name, seed, len(pairs), median(setups), runS, float64(first.instr)/runS/1e6)
	fmt.Fprintf(out, "%s Fig 8-11: write_savings=%.4g read_savings=%.4g read_speedup=%.4g relative_ipc=%.4g\n",
		w.name, first.paper.WriteSavings, first.paper.ReadSavings, first.paper.ReadSpeedup, first.paper.RelativeIPC)
	return res
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty: the
// op never ran on this workload).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
