// Package exper is the experiment harness: one entry point per table and
// figure in the paper's evaluation (§5-§6), plus the design-choice
// ablations DESIGN.md calls out. Each experiment builds machines, runs
// the workloads, and returns both a formatted table and the raw series so
// the CLI, the benchmarks and EXPERIMENTS.md share one implementation.
package exper

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/fault"
	"silentshredder/internal/integrity"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/sim"
	"silentshredder/internal/span"
	"silentshredder/internal/workloads/graph"
	"silentshredder/internal/workloads/kvstore"
	"silentshredder/internal/workloads/spec"
)

// Options control experiment scale. The defaults reproduce the paper's
// organization at a simulation-friendly size; Quick shrinks everything
// further for tests and smoke runs.
type Options struct {
	// Cores is the number of cores (and workload instances) per run.
	Cores int
	// Scale divides the Table 1 cache sizes (1 = full size). Workload
	// footprints are sized relative to the scaled hierarchy, so capacity
	// effects match the paper's full-size runs.
	Scale int
	// Quick shrinks workload sizes for smoke tests.
	Quick bool
	// Parallel is the number of worker goroutines independent simulation
	// runs are fanned out across (the `-parallel` flag). 0 defaults to
	// GOMAXPROCS; 1 forces a sequential sweep. Results are merged in
	// submission order, so output is byte-identical for any value.
	Parallel int
	// Check attaches the architectural oracle and periodic invariant
	// sweeps to every machine (sim.Config.CheckOracle). Violations panic;
	// expect a large slowdown. Implies the functional data path.
	Check bool
	// MCWorkers sets every machine's concurrent crypto datapath width
	// (sim.Config.MCWorkers, the `-mc-workers` flag). Results are
	// byte-identical for any value; 0 or 1 is fully sequential.
	MCWorkers int
	// Banks overrides the per-channel bank count (0 keeps Table 1's 8).
	Banks int
	// BankQueueDepth > 0 enables the banked drain-scheduler device model
	// with per-bank bounded write queues of this depth (the
	// `-bank-queue` flag). 0 keeps the legacy penalty heuristic — and
	// byte-identical default output.
	BankQueueDepth int
	// BankDrainBatch sets the full-queue drain batch under the banked
	// model (0 = nvm.DefaultBankDrainBatch).
	BankDrainBatch int
	// IntegrityEngine selects the integrity engine for machines that
	// enable the Merkle tree (the `-integrity-engine` flag). The zero
	// value (EngineEager) keeps the classic eager tree — and
	// byte-identical default output.
	IntegrityEngine integrity.EngineKind
	// Profile, when non-nil, collects host wall-time phase timers and
	// per-run duration histograms over every sweep run through this
	// Options value (the `-obs-phase` flag). Host-time measurement only:
	// its report is nondeterministic and is never part of golden output.
	Profile *SweepProfile
}

// DefaultOptions returns the standard experiment scale: the paper's 8
// cores with the hierarchy scaled by 8.
func DefaultOptions() Options { return Options{Cores: 8, Scale: 8} }

// Validate reports the first machine dimension in o the model cannot
// build, as a *sim.SizeError: Cores must be 1..hier.MaxCores and Scale at
// least 1. The command-line tools call it on their flags, so asking for
// zero cores is an error rather than the default; library callers that
// leave a field zero get DefaultOptions' value for it instead.
func (o Options) Validate() error {
	if err := sim.CheckCores(o.Cores); err != nil {
		return err
	}
	if o.Scale < 1 {
		return &sim.SizeError{Field: "scale", Value: o.Scale, Min: 1}
	}
	return nil
}

func (o Options) normalized() Options {
	if o.Cores <= 0 {
		o.Cores = 8
	}
	if o.Scale <= 0 {
		o.Scale = 8
	}
	return o
}

// graphWorkloads are the PowerGraph applications of Figures 8-11.
var graphWorkloads = []string{"pagerank", "simple_coloring", "kcore"}

// AllWorkloads returns the Figure 8 x-axis: 26 SPEC + 3 PowerGraph.
func AllWorkloads() []string {
	var names []string
	for _, p := range spec.Profiles {
		names = append(names, p.Name)
	}
	return append(names, graphWorkloads...)
}

// isGraph reports whether the workload needs the functional data path.
func isGraph(name string) bool {
	switch name {
	case "pagerank", "simple_coloring", "kcore",
		"su_triangle_count", "d_triangle_count", "ud_triangle_count",
		"als", "wals", "sgd", "sals", "d_ordered_coloring", "kvstore":
		return true
	}
	return false
}

// applyMachine folds the Options device/controller geometry overrides
// into a machine config (shared by machineFor and RunWorkloadTweaked so
// every harness entry point honors the same flags).
func (o Options) applyMachine(cfg *sim.Config) {
	cfg.MCWorkers = o.MCWorkers
	if o.Banks > 0 {
		cfg.NVM.Banks = o.Banks
	}
	if o.BankQueueDepth > 0 {
		cfg.NVM.BankQueueDepth = o.BankQueueDepth
	}
	if o.BankDrainBatch > 0 {
		cfg.NVM.BankDrainBatch = o.BankDrainBatch
	}
	if o.IntegrityEngine != integrity.EngineEager {
		cfg.MemCtrl.IntegrityCfg.Engine = o.IntegrityEngine
	}
}

// machineFor builds a machine for one (workload, mode) run.
func machineFor(o Options, name string, mode memctrl.Mode, zm kernel.ZeroMode) *sim.Machine {
	cfg := sim.ScaledConfig(mode, zm, o.Scale)
	cfg.Hier.Cores = o.Cores
	cfg.StoreData = isGraph(name)
	cfg.MemPages = 1 << 20 // 4GB pool: experiments never OOM
	cfg.CheckOracle = o.Check
	o.applyMachine(&cfg)
	return sim.MustNew(cfg)
}

// graphGen sizes the synthetic graph per instance.
func graphGen(o Options, seed int64) graph.Gen {
	g := graph.DefaultGen()
	if o.Quick {
		g.V, g.E = 512, 4096
	}
	g.Seed = seed
	return g
}

// triangleGen shrinks the graph for the triangle-counting workloads:
// neighborhood intersection over Zipf hubs is quadratic in hub degree,
// which would dwarf the other Figure 5 applications' runtime without
// changing the write-traffic conclusions.
func triangleGen(o Options, seed int64) graph.Gen {
	g := graphGen(o, seed)
	g.V /= 4
	g.E /= 4
	return g
}

// runInstance executes one workload instance on one core.
func runInstance(o Options, rt *apprt.Runtime, name string, seed int64) {
	switch name {
	case "pagerank":
		g := graph.Build(rt, graphGen(o, seed))
		g.PageRank(2)
	case "simple_coloring":
		g := graph.Build(rt, graphGen(o, seed))
		g.ColorGreedy()
	case "d_ordered_coloring":
		g := graph.Build(rt, graphGen(o, seed))
		g.ColorOrdered()
	case "kcore":
		g := graph.Build(rt, graphGen(o, seed))
		g.KCoreUpTo(4) // the 4-core: bounded peeling keeps cost linear
	case "su_triangle_count":
		g := graph.Build(rt, triangleGen(o, seed))
		g.TriangleCount(32) // sampled
	case "d_triangle_count", "ud_triangle_count":
		g := graph.Build(rt, triangleGen(o, seed))
		g.TriangleCount(128)
	case "als", "wals":
		n := 4096
		if o.Quick {
			n = 512
		}
		f := graph.NewFactorizer(rt, graph.GenRatings(seed, 256, 128, n), 8)
		f.ALS(1, 0.05, 0.01)
	case "kvstore":
		n, ops := 4096, 8192
		if o.Quick {
			n, ops = 256, 512
		}
		kvstore.Churn(rt, n, ops, 0.6, uint64(seed))
	case "sgd", "sals":
		n := 4096
		if o.Quick {
			n = 512
		}
		f := graph.NewFactorizer(rt, graph.GenRatings(seed, 256, 128, n), 8)
		f.SGD(1, 0.05, 0.01)
	default:
		p, ok := spec.ByName(name)
		if !ok {
			panic(fmt.Sprintf("exper: unknown workload %q", name))
		}
		if o.Quick {
			p.InitPages /= 8
			if p.InitPages < 16 {
				p.InitPages = 16
			}
		}
		spec.Run(rt, p, seed)
	}
}

// runConcurrent executes one workload instance per core, interleaved in
// round-robin quanta so the instances genuinely contend for the shared
// L3/L4 and memory controller — the multiprogrammed behaviour of the
// paper's rate-mode runs. The simulator is single-threaded by design;
// interleaving is cooperative: each instance runs in a goroutine that
// holds a baton for a fixed number of operations (the per-op trace hook
// is the yield point) and then hands it to the next live instance, so
// exactly one goroutine ever touches the machine at a time.
func runConcurrent(o Options, m *sim.Machine, name string) {
	n := o.Cores
	if n == 1 {
		runInstance(o, m.Runtime(0), name, 1)
		return
	}
	const quantum = 1024 // operations per turn
	batons := make([]chan struct{}, n)
	for i := range batons {
		batons[i] = make(chan struct{}, 1)
	}
	done := make([]bool, n)
	finished := make(chan struct{})

	pass := func(from int) {
		for k := 1; k <= n; k++ {
			j := (from + k) % n
			if !done[j] {
				batons[j] <- struct{}{}
				return
			}
		}
		finished <- struct{}{}
	}

	for i := 0; i < n; i++ {
		rt := m.Runtime(i)
		ops := 0
		rt.SetTraceHook(func(apprt.TraceOp) {
			ops++
			if ops%quantum == 0 {
				pass(i)
				<-batons[i]
			}
		})
		go func() {
			<-batons[i]
			runInstance(o, rt, name, int64(i+1))
			done[i] = true
			pass(i)
		}()
	}
	batons[0] <- struct{}{}
	<-finished
}

// runMachine runs one instance per core (rate mode, like the paper's
// multiprogrammed SPEC runs) and returns the machine for inspection.
func runMachine(o Options, name string, mode memctrl.Mode, zm kernel.ZeroMode) *sim.Machine {
	if !KnownWorkload(name) {
		// Validate here, in the caller's goroutine: runConcurrent's
		// workers cannot usefully propagate a panic.
		panic(fmt.Sprintf("exper: unknown workload %q", name))
	}
	m := machineFor(o, name, mode, zm)
	runConcurrent(o, m, name)
	// Drain dirty data so write counts reflect everything the phase
	// produced, independent of how much happened to still be cached.
	m.Hier.FlushAll()
	m.MC.Flush()
	return m
}

// KnownWorkload reports whether name is a runnable workload.
func KnownWorkload(name string) bool {
	if _, ok := spec.ByName(name); ok {
		return true
	}
	return isGraph(name)
}

// RunWorkload runs one named workload (an instance per core) on a machine
// with the given controller mode and zeroing strategy, returning the
// machine for inspection. Unlike the internal runners it validates the
// workload name; it does not flush caches at the end.
func RunWorkload(o Options, name string, mode memctrl.Mode, zm kernel.ZeroMode) (*sim.Machine, error) {
	return RunWorkloadTweaked(o, name, mode, zm, MachineTweaks{})
}

// MachineTweaks are the optional controller features a caller can toggle
// on top of the standard experiment machine.
type MachineTweaks struct {
	DEUCE            bool
	Integrity        bool
	CounterCacheSize int // bytes; 0 keeps the scaled Table 1 size
	WriteThrough     bool

	// Policy selects the physical shred policy (memctrl/policy.go); the
	// zero value keeps the paper's zero-cost behavior.
	Policy memctrl.ShredPolicy

	// Faults enables the deterministic fault injector (zero value = perfect
	// device). Forces the functional data path and the ECC layer on.
	Faults fault.Config

	// Bus, when non-nil, receives the machine's observability events
	// (sim.Config.Bus). The caller owns the bus; under a parallel sweep
	// each worker must pass its own so event order stays deterministic.
	Bus *obs.Bus
	// EpochEvery > 0 attaches an epoch sampler snapshotting the stats
	// registry every EpochEvery cycles (sim.Config.EpochEvery). The
	// end-of-run sample is taken before RunWorkloadTweaked returns.
	EpochEvery uint64

	// Spans, when non-nil, receives the machine's latency-provenance
	// spans (sim.Config.Spans). Caller-owned like Bus: one recorder per
	// worker under a parallel sweep.
	Spans *span.Recorder
}

// RunWorkloadTweaked is RunWorkload with controller-feature overrides.
func RunWorkloadTweaked(o Options, name string, mode memctrl.Mode, zm kernel.ZeroMode, t MachineTweaks) (*sim.Machine, error) {
	if !KnownWorkload(name) {
		return nil, fmt.Errorf("exper: unknown workload %q", name)
	}
	o = o.normalized()
	cfg := sim.ScaledConfig(mode, zm, o.Scale)
	cfg.Hier.Cores = o.Cores
	cfg.StoreData = isGraph(name)
	cfg.MemPages = 1 << 20
	cfg.MemCtrl.DEUCE = t.DEUCE
	cfg.MemCtrl.Integrity = t.Integrity
	cfg.MemCtrl.Policy = t.Policy
	cfg.MemCtrl.CounterCache.WriteThrough = t.WriteThrough
	cfg.CheckOracle = o.Check
	if t.CounterCacheSize > 0 {
		cfg.MemCtrl.CounterCache.Size = t.CounterCacheSize
	}
	if t.Faults.Enabled() {
		cfg.Faults = t.Faults
		cfg.CheckOracle = false // faults and the oracle are incompatible
	}
	if t.DEUCE && !cfg.StoreData {
		// DEUCE's partial re-encryption needs the data path.
		cfg.StoreData = true
	}
	cfg.Bus = t.Bus
	cfg.Spans = t.Spans
	cfg.EpochEvery = t.EpochEvery
	o.applyMachine(&cfg)
	m := sim.MustNew(cfg)
	runConcurrent(o, m, name)
	m.ObsFinish()
	return m, nil
}

// Result holds one workload's baseline-vs-Silent-Shredder measurements.
type Result struct {
	Name string

	BaselineWrites uint64 // total NVM writes, baseline (non-temporal zeroing)
	SSWrites       uint64 // total NVM writes, Silent Shredder
	WriteSavings   float64

	SSDataReads   uint64
	SSZeroFills   uint64
	ReadSavings   float64 // fraction of reads served by zero-fill
	BaselineRdLat float64 // mean controller read latency (cycles)
	SSRdLat       float64
	ReadSpeedup   float64

	BaselineIPC float64
	SSIPC       float64
	RelativeIPC float64

	BaselineEnergyPJ float64
	SSEnergyPJ       float64
	EnergySavings    float64
}

// Compare runs one workload under the baseline (non-temporal zeroing)
// and Silent Shredder and derives the Figure 8-11 metrics.
func Compare(o Options, name string) Result {
	o = o.normalized()
	bl := runMachine(o, name, memctrl.Baseline, kernel.ZeroNonTemporal)
	ss := runMachine(o, name, memctrl.SilentShredder, kernel.ZeroShred)

	r := Result{
		Name:             name,
		BaselineWrites:   bl.Dev.Writes(),
		SSWrites:         ss.Dev.Writes(),
		SSDataReads:      ss.MC.DataReads(),
		SSZeroFills:      ss.MC.ZeroFillReads(),
		BaselineRdLat:    bl.MC.MeanReadLatency(),
		SSRdLat:          ss.MC.MeanReadLatency(),
		BaselineIPC:      bl.AggregateIPC(),
		SSIPC:            ss.AggregateIPC(),
		BaselineEnergyPJ: bl.Dev.EnergyPJ(),
		SSEnergyPJ:       ss.Dev.EnergyPJ(),
	}
	if r.BaselineWrites > 0 {
		r.WriteSavings = 1 - float64(r.SSWrites)/float64(r.BaselineWrites)
	}
	if tot := r.SSDataReads + r.SSZeroFills; tot > 0 {
		r.ReadSavings = float64(r.SSZeroFills) / float64(tot)
	}
	if r.SSRdLat > 0 {
		r.ReadSpeedup = r.BaselineRdLat / r.SSRdLat
	}
	if r.BaselineIPC > 0 {
		r.RelativeIPC = r.SSIPC / r.BaselineIPC
	}
	if r.BaselineEnergyPJ > 0 {
		r.EnergySavings = 1 - r.SSEnergyPJ/r.BaselineEnergyPJ
	}
	return r
}

// CompareAll runs Compare for each named workload (defaulting to the full
// Figure 8 set). The per-workload comparisons are independent machine
// runs, so they are fanned out across the sweep worker pool; results come
// back in names order regardless of which worker finished first.
func CompareAll(o Options, names []string) []Result {
	if len(names) == 0 {
		names = AllWorkloads()
	}
	for _, n := range names {
		if !KnownWorkload(n) {
			// Validate before fanning out: a panic inside a worker is
			// re-raised by the pool, but failing fast in the caller keeps
			// the error attached to the offending name before any
			// simulation time is spent.
			panic(fmt.Sprintf("exper: unknown workload %q", n))
		}
	}
	return runSweep(o, len(names), func(i int) Result {
		return Compare(o, names[i])
	})
}

// touchAndScan is a helper used by several ablations: it faults npages in
// (triggering shredding) and then scans them with block-grained loads.
func touchAndScan(rt *apprt.Runtime, npages int) {
	va := rt.Malloc(npages * addr.PageSize)
	for i := 0; i < npages; i++ {
		rt.Store(va+addr.Virt(i*addr.PageSize), uint64(i)+1)
	}
	for i := 0; i < npages*addr.BlocksPerPage; i++ {
		rt.Load(va + addr.Virt(i*addr.BlockSize))
	}
}
