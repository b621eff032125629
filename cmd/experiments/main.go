// Command experiments regenerates every table and figure in the paper's
// evaluation, plus the design-choice ablations. Each subcommand prints an
// aligned text table with the paper's reference numbers in the title.
//
// Usage:
//
//	experiments [flags] <experiment>...
//
// Experiments: table1 table2 fig4 fig5 fig8 fig9 fig10 fig11 fig12
// ablation-iv ablation-dcw ablation-deuce ablation-wt ablation-merkle
// banks faults crash adversary merkle latency energy export summary
// timeseries all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"silentshredder/internal/adversary"
	"silentshredder/internal/exper"
	"silentshredder/internal/integrity"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/obscli"
	"silentshredder/internal/stats"
)

func main() {
	var o exper.Options
	flag.IntVar(&o.Cores, "cores", 8, "simulated cores (one workload instance per core)")
	flag.IntVar(&o.Scale, "scale", 8, "divide Table 1 cache capacities by this factor")
	flag.BoolVar(&o.Quick, "quick", false, "shrink workloads for a fast smoke run")
	flag.IntVar(&o.Parallel, "parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for independent simulation runs (1 = sequential; output is byte-identical either way)")
	flag.BoolVar(&o.Check, "check", false,
		"run every machine under the architectural oracle and invariant sweeps (slow; violations abort the run)")
	flag.IntVar(&o.MCWorkers, "mc-workers", 0,
		"memory controller crypto-datapath workers per machine (0/1 = sequential; output is byte-identical for any value)")
	flag.IntVar(&o.Banks, "banks", 0, "NVM banks per channel (0 keeps Table 1's 8)")
	flag.IntVar(&o.BankQueueDepth, "bank-queue", 0,
		"per-bank posted-write queue depth; > 0 enables the banked drain-scheduler device model")
	flag.IntVar(&o.BankDrainBatch, "bank-drain", 0,
		"writes drained back-to-back when a bank queue fills (0 = default batch)")
	integrityEngine := flag.String("integrity-engine", "eager",
		"integrity engine for Merkle-enabled machines: eager | cached (output is engine-invariant where pinned by goldens)")
	var workloads string
	flag.StringVar(&workloads, "workloads", "", "comma-separated subset for fig8-fig11 (default: all 29)")
	var format string
	flag.StringVar(&format, "format", "text", "output for the comparison data: text | csv | json")
	obsPhase := flag.Bool("obs-phase", false, "print host wall-time phase/run timings to stderr after the sweeps")
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	var profCfg obs.ProfileConfig
	profCfg.RegisterFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	engine, err := integrity.ParseEngineKind(*integrityEngine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	o.IntegrityEngine = engine
	if err := o.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := profCfg.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	defer stopProf()
	if *obsPhase {
		o.Profile = exper.NewSweepProfile()
		defer func() {
			o.Profile.Finish()
			fmt.Fprint(os.Stderr, o.Profile.Report())
		}()
	}

	names := splitList(workloads)

	// fig8-fig11 share one comparison sweep; run it lazily and once.
	var results []exper.Result
	comparison := func() []exper.Result {
		if results == nil {
			fmt.Fprintf(os.Stderr, "running baseline vs Silent Shredder comparison (%d workloads x %d cores x 2 modes, %d sweep workers)...\n",
				lenOr(names, 29), o.Cores, o.Parallel)
			results = exper.CompareAll(o, names)
		}
		return results
	}

	for _, cmd := range args {
		o.Profile.StartPhase(cmd) // nil-safe: no-op without -obs-phase
		switch cmd {
		case "timeseries":
			if err := runTimeseries(o, names, &obsFlags); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
		case "table1":
			fmt.Println(exper.Table1(o))
		case "table2":
			fmt.Println(exper.Table2Format(exper.Table2(o)))
		case "fig4":
			fmt.Println(exper.Fig4Table(exper.Fig4(o, nil)))
		case "fig5":
			fmt.Println(exper.Fig5Table(exper.Fig5(o)))
		case "fig8":
			fmt.Println(exper.Fig8Table(comparison()))
		case "fig9":
			fmt.Println(exper.Fig9Table(comparison()))
		case "fig10":
			fmt.Println(exper.Fig10Table(comparison()))
		case "fig11":
			fmt.Println(exper.Fig11Table(comparison()))
		case "fig12":
			fmt.Println(exper.Fig12Table(o, exper.Fig12(o, nil)))
		case "ablation-iv":
			fmt.Println(exper.AblationIVTable(exper.AblationIV(o)))
		case "ablation-dcw":
			fmt.Println(exper.AblationDCWTable(exper.AblationDCW(o)))
		case "ablation-deuce":
			fmt.Println(exper.AblationDeuceTable(exper.AblationDeuce(o)))
		case "ablation-writeq":
			fmt.Println(exper.AblationWQTable(exper.AblationWQ(o)))
		case "ablation-wt":
			fmt.Println(exper.AblationWTTable(exper.AblationWT(o)))
		case "ablation-merkle":
			fmt.Println(exper.AblationMerkleTable(exper.AblationMerkle(o)))
		case "banks":
			fmt.Println(exper.BanksTable(exper.Banks(o)))
		case "faults":
			rows, err := exper.FaultSweep(o, "lbm", 42, []float64{1, 4, 16})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(exper.FaultSweepTable(rows))
		case "crash":
			rows, err := exper.CrashSweep(o, 42, 16)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(exper.CrashSweepTable(rows))
		case "adversary":
			rows, err := exper.AdversaryMatrix(o, 42, adversary.AllAttackers())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(exper.AdversaryTable(rows))
		case "merkle":
			rows, err := exper.MerkleSweep(o, 42, obsFlags.Ring)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(exper.MerkleTable(rows))
			fmt.Println(exper.MerkleLevelTable(rows))
		case "latency":
			rows, err := exper.LatencySweep(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(exper.LatencyTable(rows))
		case "energy":
			fmt.Println(exper.EnergyTable(comparison()))
		case "summary":
			printSummary(comparison())
		case "export":
			switch format {
			case "csv":
				out, err := exper.ResultsCSV(comparison())
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Print(out)
			case "json":
				out, err := exper.ResultsJSON(comparison())
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println(string(out))
			default:
				fmt.Println(exper.Fig8Table(comparison()))
				fmt.Println(exper.Fig9Table(comparison()))
				fmt.Println(exper.Fig10Table(comparison()))
				fmt.Println(exper.Fig11Table(comparison()))
			}
		case "all":
			fmt.Println(exper.Table1(o))
			fmt.Println(exper.Table2Format(exper.Table2(o)))
			fmt.Println(exper.Fig4Table(exper.Fig4(o, nil)))
			fmt.Println(exper.Fig5Table(exper.Fig5(o)))
			fmt.Println(exper.Fig8Table(comparison()))
			fmt.Println(exper.Fig9Table(comparison()))
			fmt.Println(exper.Fig10Table(comparison()))
			fmt.Println(exper.Fig11Table(comparison()))
			fmt.Println(exper.Fig12Table(o, exper.Fig12(o, nil)))
			fmt.Println(exper.AblationIVTable(exper.AblationIV(o)))
			fmt.Println(exper.AblationDCWTable(exper.AblationDCW(o)))
			fmt.Println(exper.AblationDeuceTable(exper.AblationDeuce(o)))
			fmt.Println(exper.AblationWTTable(exper.AblationWT(o)))
			fmt.Println(exper.AblationWQTable(exper.AblationWQ(o)))
			fmt.Println(exper.AblationMerkleTable(exper.AblationMerkle(o)))
			fmt.Println(exper.BanksTable(exper.Banks(o)))
			if rows, err := exper.MerkleSweep(o, 42, obsFlags.Ring); err == nil {
				fmt.Println(exper.MerkleTable(rows))
				fmt.Println(exper.MerkleLevelTable(rows))
			} else {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if rows, err := exper.LatencySweep(o); err == nil {
				fmt.Println(exper.LatencyTable(rows))
			} else {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if rows, err := exper.AdversaryMatrix(o, 42, adversary.AllAttackers()); err == nil {
				fmt.Println(exper.AdversaryTable(rows))
			} else {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(exper.EnergyTable(comparison()))
			printSummary(comparison())
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", cmd)
			usage()
			os.Exit(2)
		}
	}
}

// runTimeseries is the time-resolved observability recipe: run each
// workload (default pagerank) under Silent Shredder with the epoch
// sampler (and the event bus when -obs-trace is set), then export the
// merged epoch series / Chrome trace. The sweep is fanned out like every
// other experiment; captures merge in workload order, so output is
// byte-identical for any -parallel.
func runTimeseries(o exper.Options, names []string, f *obscli.Flags) error {
	if len(names) == 0 {
		names = []string{"pagerank"}
	}
	if f.Epoch == 0 {
		f.Epoch = 1 << 20 // ~0.5ms of machine time per epoch
	}
	type out struct {
		cap obscli.Capture
		err error
	}
	parallel := o.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	outs := exper.RunIndexed(parallel, len(names), exper.ProfiledJob(o.Profile, func(i int) out {
		bus := f.NewBus()
		m, err := exper.RunWorkloadTweaked(o, names[i], memctrl.SilentShredder, kernel.ZeroShred,
			exper.MachineTweaks{Bus: bus, EpochEvery: f.Epoch})
		if err != nil {
			return out{err: err}
		}
		return out{cap: f.Capture(names[i], bus, m)}
	}))
	caps := make([]obscli.Capture, len(outs))
	for i, r := range outs {
		if r.err != nil {
			return r.err
		}
		caps[i] = r.cap
	}
	return f.Write(caps)
}

func printSummary(results []exper.Result) {
	var ws, rs, sp, ipc []float64
	for _, r := range results {
		ws = append(ws, r.WriteSavings)
		rs = append(rs, r.ReadSavings)
		sp = append(sp, r.ReadSpeedup)
		ipc = append(ipc, r.RelativeIPC)
	}
	ref := exper.PaperRef
	t := stats.NewTable("Summary: paper-reported vs measured (averages)",
		"metric", "paper", "measured")
	t.AddRow("write savings (fig 8)", ref.AvgWriteSavings, stats.ArithMean(ws))
	t.AddRow("read traffic savings (fig 9)", ref.AvgReadSavings, stats.ArithMean(rs))
	t.AddRow("memory read speedup (fig 10)", ref.AvgReadSpeedup, stats.GeoMean(sp))
	t.AddRow("relative IPC (fig 11)", 1+ref.AvgIPCGain, stats.GeoMean(ipc))
	fmt.Println(t)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func lenOr(s []string, def int) int {
	if len(s) == 0 {
		return def
	}
	return len(s)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: experiments [flags] <experiment>...

Regenerates the paper's evaluation tables and figures on the simulator.

experiments:
  table1           simulated system configuration
  table2           initialization-technique comparison (measured)
  fig4             kernel-zeroing share of memset time (64MB-1GB)
  fig5             relative writes by kernel zeroing strategy (PowerGraph)
  fig8             per-benchmark main-memory write savings
  fig9             per-benchmark read-traffic savings
  fig10            per-benchmark memory read speedup
  fig11            per-benchmark relative IPC
  fig12            counter-cache size vs miss rate
  ablation-iv      the three 4.2 shred encodings
  ablation-dcw     encryption diffusion vs DCW/Flip-N-Write
  ablation-deuce   Silent Shredder composed with DEUCE
  ablation-wt      write-back vs write-through counter cache
  ablation-writeq  zeroing write bursts blocking reads
  ablation-merkle  Bonsai Merkle integrity overhead
  banks            bank/queue geometry sweep under the banked device model
                   (per-bank write queues, drain batching, read-around;
                   -banks/-bank-queue/-bank-drain/-mc-workers)
  faults           ECC corrections and retirements vs injected fault rate
  crash            crash-anywhere recovery validation sweep
  adversary        persistence-attack matrix: remanence / scavenger / replay
                   attackers vs every (personality, shred-policy) cell
  merkle           integrity-engine comparison: eager vs cached/coalesced
                   hash traffic per tree level over one checked workload
  latency          latency provenance: per-op mean cycles split by layer
                   (mmu/cache/counter/pad/integrity/bank/device) for the
                   baseline's NT-zero clear vs Silent Shredder's shred
  energy           NVM energy savings (the paper's power-reduction claim)
  export           comparison data as text/csv/json (see -format)
  summary          averages vs the paper's headline numbers
  timeseries       time-resolved shred/zero-fill/counter-cache series
                   (-obs-epoch interval, -obs-epoch-out CSV/JSON,
                   -obs-trace Chrome trace; workloads from -workloads)
  all              everything above

flags:
`)
	flag.PrintDefaults()
}
