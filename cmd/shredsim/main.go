// Command shredsim runs one or more workloads on the simulated
// secure-NVMM machine and dumps the full statistics registry — the
// general-purpose front door to the simulator.
//
// -workload accepts a comma-separated list; independent runs are fanned
// out across -parallel worker goroutines (each machine confined to its
// worker, statistics crossing back as by-value snapshots) and reported in
// the order given, so output is byte-identical for any worker count.
//
// Examples:
//
//	shredsim -workload pagerank -mode ss -zeroing shred
//	shredsim -workload mcf -mode baseline -zeroing non-temporal -cores 4
//	shredsim -workload mcf,gcc,pagerank -parallel 3
//	shredsim -workload kvstore -faults 42:stuck=1e-3,flip=1e-5,drop=1e-4
//	shredsim -list
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"

	"silentshredder/internal/exper"
	"silentshredder/internal/fault"
	intg "silentshredder/internal/integrity"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/obscli"
	"silentshredder/internal/stats"
	"silentshredder/internal/telemetry"
	"silentshredder/internal/workloads/spec"
)

func main() {
	var (
		workload = flag.String("workload", "pagerank", "workload(s) to run, comma-separated (see -list)")
		mode     = flag.String("mode", "ss", "memory controller: ss | baseline")
		zeroing  = flag.String("zeroing", "", "kernel zeroing: shred | non-temporal | temporal (default matches -mode)")
		cores    = flag.Int("cores", 8, "cores (one workload instance each)")
		scale    = flag.Int("scale", 8, "divide Table 1 cache capacities by this factor")
		quick    = flag.Bool("quick", false, "shrink the workload")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines when running several workloads (1 = sequential)")
		list     = flag.Bool("list", false, "list available workloads and exit")

		deuce     = flag.Bool("deuce", false, "enable DEUCE partial re-encryption")
		integrity = flag.Bool("integrity", false, "enable the Bonsai Merkle counter tree")
		intEngine = flag.String("integrity-engine", "eager", "integrity engine when the Merkle tree is enabled: eager | cached")
		ccSize    = flag.Int("counter-cache", 0, "counter cache bytes (0 = Table 1 / scale)")
		wt        = flag.Bool("write-through", false, "write-through counter cache (no battery needed)")
		saveNVM   = flag.String("save-nvm", "", "after the run, write a memory-state checkpoint (DIMM image) to this file (single workload only)")
		check     = flag.Bool("check", false, "cross-check every load against the architectural oracle and sweep machine-wide invariants (slow; violations abort)")
		faults    = flag.String("faults", "", "deterministic fault injection, seed:rate,... e.g. 42:stuck=1e-3,flip=1e-6,drop=1e-4,torn=1e-5,endur=1000 (enables ECC; \"off\" or empty disables)")
		shredPol  = flag.String("shred-policy", "zero-cost", "physical shred policy: zero-cost | duty-to-delete | multi-pass (overwrite invalidated pages on the device)")
		mcWorkers = flag.Int("mc-workers", 0, "memory controller crypto-datapath workers (0/1 = sequential; output is byte-identical for any value)")
		banks     = flag.Int("banks", 0, "NVM banks per channel (0 keeps Table 1's 8)")
		bankQueue = flag.Int("bank-queue", 0, "per-bank posted-write queue depth; > 0 enables the banked drain-scheduler device model")
		bankDrain = flag.Int("bank-drain", 0, "writes drained back-to-back when a bank queue fills (0 = default batch)")
		obsPhase  = flag.Bool("obs-phase", false, "print host wall-time phase/run timings to stderr after the sweep")
		serve     = flag.String("serve", "", "after the run(s), serve live telemetry (/metrics in Prometheus text format, /healthz) on this address, e.g. :9090, until interrupted")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	var profCfg obs.ProfileConfig
	profCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := profCfg.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
		os.Exit(2)
	}
	defer stopProf()

	faultCfg, err := fault.Parse(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
		os.Exit(2)
	}
	policy, err := memctrl.ParseShredPolicy(*shredPol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
		os.Exit(2)
	}
	engine, err := intg.ParseEngineKind(*intEngine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
		os.Exit(2)
	}

	if *list {
		fmt.Println("SPEC CPU2006 profiles:")
		for _, p := range spec.Profiles {
			fmt.Printf("  %s\n", p.Name)
		}
		fmt.Println("PowerGraph applications:")
		for _, n := range exper.Fig5Workloads {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	mcMode := memctrl.SilentShredder
	zm := kernel.ZeroShred
	switch *mode {
	case "ss", "silent-shredder":
	case "baseline":
		mcMode = memctrl.Baseline
		zm = kernel.ZeroNonTemporal
	default:
		fmt.Fprintf(os.Stderr, "shredsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	switch *zeroing {
	case "":
	case "shred":
		zm = kernel.ZeroShred
	case "non-temporal":
		zm = kernel.ZeroNonTemporal
	case "temporal":
		zm = kernel.ZeroTemporal
	default:
		fmt.Fprintf(os.Stderr, "shredsim: unknown zeroing %q\n", *zeroing)
		os.Exit(2)
	}
	if zm == kernel.ZeroShred && mcMode != memctrl.SilentShredder {
		fmt.Fprintln(os.Stderr, "shredsim: shred zeroing requires -mode ss")
		os.Exit(2)
	}

	names := splitList(*workload)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "shredsim: no workload given")
		os.Exit(2)
	}

	o := exper.Options{
		Cores: *cores, Scale: *scale, Quick: *quick, Parallel: *parallel, Check: *check,
		MCWorkers: *mcWorkers, Banks: *banks, BankQueueDepth: *bankQueue, BankDrainBatch: *bankDrain,
		IntegrityEngine: engine,
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
		os.Exit(2)
	}
	tweak := exper.MachineTweaks{
		DEUCE:            *deuce,
		Integrity:        *integrity,
		CounterCacheSize: *ccSize,
		WriteThrough:     *wt,
		Policy:           policy,
		Faults:           faultCfg,
		EpochEvery:       obsFlags.Epoch,
	}
	var profile *exper.SweepProfile
	if *obsPhase {
		profile = exper.NewSweepProfile()
		profile.StartPhase("simulate")
		o.Profile = profile
	}
	reportProfile := func() {
		if profile != nil {
			profile.Finish()
			fmt.Fprint(os.Stderr, profile.Report())
		}
	}
	if faultCfg.Enabled() && *check {
		fmt.Fprintln(os.Stderr, "shredsim: -check and -faults are incompatible (lost lines legitimately diverge from the oracle)")
		os.Exit(2)
	}

	if len(names) == 1 {
		// Single run in the main goroutine: the machine stays available
		// for post-run operations like -save-nvm.
		bus := obsFlags.NewBus()
		tweak.Bus = bus
		tweak.Spans = obsFlags.NewSpans()
		m, err := exper.RunWorkloadTweaked(o, names[0], mcMode, zm, tweak)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(report(names[0], mcMode, zm, *cores, *scale,
			m.AggregateIPC(), m.TotalInstructions(), m.MaxCycles(), m.Snapshot()))
		if cr := m.CheckReport(); cr != "" {
			fmt.Printf("\n%s\n", cr)
		}
		cap := obsFlags.Capture(names[0], bus, m)
		if obsFlags.Enabled() {
			if err := obsFlags.Write([]obscli.Capture{cap}); err != nil {
				fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
				os.Exit(1)
			}
		}
		reportProfile()
		if *saveNVM != "" {
			f, err := os.Create(*saveNVM)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := m.SaveMemoryState(f); err != nil {
				fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "memory-state checkpoint written to %s\n", *saveNVM)
		}
		if *serve != "" {
			sample := telemetry.Sample{
				Run: names[0], Cycles: m.MaxCycles(), Instructions: m.TotalInstructions(),
				IPC: m.AggregateIPC(), Snap: m.Snapshot(), Spans: cap.SpanAgg,
			}
			if err := serveTelemetry(*serve, []telemetry.Sample{sample}); err != nil {
				fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if *saveNVM != "" {
		fmt.Fprintln(os.Stderr, "shredsim: -save-nvm requires a single workload")
		os.Exit(2)
	}

	// Multi-workload sweep: one machine per worker goroutine; only plain
	// values (the report string, built from a stats snapshot) escape a
	// worker, so the sweep is race-free and its output deterministic.
	type runOut struct {
		text   string
		cap    obscli.Capture
		sample telemetry.Sample
		err    error
	}
	outs := exper.RunIndexed(*parallel, len(names), exper.ProfiledJob(profile, func(i int) runOut {
		// Per-run bus, sampler, and span recorder, confined to this
		// worker: captures cross back by value, so traces merge
		// deterministically.
		tw := tweak
		tw.Bus = obsFlags.NewBus()
		tw.Spans = obsFlags.NewSpans()
		m, err := exper.RunWorkloadTweaked(o, names[i], mcMode, zm, tw)
		if err != nil {
			return runOut{err: err}
		}
		text := report(names[i], mcMode, zm, *cores, *scale,
			m.AggregateIPC(), m.TotalInstructions(), m.MaxCycles(), m.Snapshot())
		if cr := m.CheckReport(); cr != "" {
			text += "\n" + cr + "\n"
		}
		cap := obsFlags.Capture(names[i], tw.Bus, m)
		return runOut{text: text, cap: cap, sample: telemetry.Sample{
			Run: names[i], Cycles: m.MaxCycles(), Instructions: m.TotalInstructions(),
			IPC: m.AggregateIPC(), Snap: m.Snapshot(), Spans: cap.SpanAgg,
		}}
	}))
	failed := false
	for i, r := range outs {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "shredsim: %v\n", r.err)
			failed = true
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.text)
	}
	if obsFlags.Enabled() && !failed {
		caps := make([]obscli.Capture, len(outs))
		for i, r := range outs {
			caps[i] = r.cap
		}
		if err := obsFlags.Write(caps); err != nil {
			fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
			failed = true
		}
	}
	reportProfile()
	if failed {
		os.Exit(1)
	}
	if *serve != "" {
		samples := make([]telemetry.Sample, len(outs))
		for i, r := range outs {
			samples[i] = r.sample
		}
		if err := serveTelemetry(*serve, samples); err != nil {
			fmt.Fprintf(os.Stderr, "shredsim: %v\n", err)
			os.Exit(1)
		}
	}
}

// serveTelemetry publishes the finished runs' samples and serves the
// telemetry endpoints until the process is interrupted.
func serveTelemetry(addr string, samples []telemetry.Sample) error {
	var p telemetry.Publisher
	p.Publish(samples)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "shredsim: serving /metrics and /healthz on http://%s (interrupt to stop)\n", ln.Addr())
	return http.Serve(ln, telemetry.Handler(&p))
}

// report renders one run. It takes only plain values (no live machine):
// workers hand their statistics over as a by-value stats.Snapshot, whose
// Dump is byte-identical to the live Registry's.
func report(name string, mcMode memctrl.Mode, zm kernel.ZeroMode, cores, scale int,
	ipc float64, instructions, maxCycles uint64, snap stats.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s mode=%s zeroing=%s cores=%d scale=1/%d\n\n",
		name, mcMode, zm, cores, scale)
	fmt.Fprintf(&b, "aggregate IPC: %.4f\n", ipc)
	fmt.Fprintf(&b, "instructions:  %d\n", instructions)
	fmt.Fprintf(&b, "cycles (max):  %d (%.3f ms simulated)\n\n",
		maxCycles, float64(maxCycles)/2e9*1e3)
	b.WriteString(snap.Dump())
	return b.String()
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
