package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/integrity"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
	"silentshredder/internal/span"
	"silentshredder/internal/workloads/graph"
	"silentshredder/internal/workloads/spec"
)

// quantum is the number of runtime operations a simulated core issues
// before handing the machine to the next core, as exper.runConcurrent
// does for the paper's rate-mode runs.
const quantum = 1024

// A task is one simulated core's share of a workload.
type task interface {
	// run issues the core's simulated operations.
	run(rt *apprt.Runtime)
	// check verifies what run produced without issuing simulated
	// operations.
	check(rt *apprt.Runtime) error
}

// workload is one benchmark input: a machine shape and a task per core.
type workload struct {
	name string
	// cores and scale select sim.ScaledConfig(…, scale) with cores cores.
	cores, scale int
	// functional turns on the plaintext image and ciphertext NVM.
	functional bool
	// merkle turns on the Merkle tree with the lazy cached engine.
	merkle bool
	// newTask builds a core's task from its seed; it is set-up work.
	// Tasks that time their own apprt calls record them in spans, which
	// is nil outside the profiled pair of a traced run.
	newTask func(seed int64, spans *opSpans) task
}

// coreSeed gives core i its input seed. Seed 0 gives core i the seed
// i+1, the seeds exper uses, so `--seed 0` reproduces exper.Compare.
func coreSeed(seed int64, cores, i int) int64 { return seed*int64(cores) + int64(i) + 1 }

// paperWorkloads returns the benchmark's workloads at paper scale: the
// 8-core Table 1 machine with caches scaled by 8 (exper.DefaultOptions).
func paperWorkloads() []*workload {
	return []*workload{
		// Timing only: cache probing and the hier directory dominate;
		// crypto, the functional image and integrity are bypassed.
		{
			name:  "spec-mcf",
			cores: 8, scale: 8,
			newTask: func(seed int64, _ *opSpans) task { return &specTask{name: "mcf", seed: seed} },
		},
		// The functional path at exper's graph size: spreads over cache,
		// the Go runtime, hier, aes, apprt, physmem and mmu.
		{
			name:  "graph-pagerank",
			cores: 8, scale: 8, functional: true,
			newTask: func(seed int64, _ *opSpans) task { return newPagerankTask(graph.DefaultGen(), seed) },
		},
		// The write and shred path, under the Merkle tree: the only
		// workload reaching integrity, ZeroPageDirect and ShredRange.
		newChurn(8, 384, 6, 8),
	}
}

// newChurn returns the shred-churn workload: pages pages per core per
// round, rounds rounds, probes zero-fill loads per page.
func newChurn(cores, pages, rounds, probes int) *workload {
	return &workload{
		name:  "shred-churn",
		cores: cores, scale: 8, functional: true, merkle: true,
		newTask: func(seed int64, spans *opSpans) task {
			return newChurnTask(seed, pages, rounds, probes, spans)
		},
	}
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range paperWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// modes are the two controllers every workload runs under, in order.
var modes = [2]struct {
	name string
	mode memctrl.Mode
	zero kernel.ZeroMode
}{
	{"bl", memctrl.Baseline, kernel.ZeroNonTemporal},
	{"ss", memctrl.SilentShredder, kernel.ZeroShred},
}

// machine is one mode's machine with its tasks and runtimes.
type machine struct {
	m     *sim.Machine
	tasks []task
	rts   []*apprt.Runtime
}

// setUp builds the machine for mode mi and generates every core's input,
// with what tr observes attached.
func (w *workload) setUp(mi int, seed int64, tr *tracer) (*machine, error) {
	cfg := sim.ScaledConfig(modes[mi].mode, modes[mi].zero, w.scale)
	cfg.Hier.Cores = w.cores
	cfg.StoreData = w.functional
	cfg.MemPages = 1 << 20 // exper's 4 GB pool: no run ever runs out
	if w.merkle {
		cfg.MemCtrl.Integrity = true
		cfg.MemCtrl.IntegrityCfg.Engine = integrity.EngineCached
	}
	if tr.recordsSpans() {
		// Only the running aggregate is read, and it covers every span,
		// so the ring of completed spans is kept minimal.
		cfg.Spans = span.NewRecorder(span.Config{RingCap: 1})
	}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	mc := &machine{m: m}
	for i := 0; i < w.cores; i++ {
		mc.tasks = append(mc.tasks, w.newTask(coreSeed(seed, w.cores, i), tr.opSpans()))
		mc.rts = append(mc.rts, m.Runtime(i))
	}
	return mc, nil
}

// simulate runs every task on its core, interleaved in round-robin
// quanta, then drains dirty data so the write counts cover everything
// the run produced. Only one goroutine touches the machine at a time:
// each task runs in its own goroutine that holds a baton for quantum
// operations (the runtime's trace hook is the yield point). A panicking
// task is reported as an error and the others run on.
//
// It returns the host time of every turn, one baton hold, in order.
// Between turns it samples ref (when non-nil) once refEvery has passed
// since the last sample; samples fall in no turn.
func (mc *machine) simulate(ref *reference) (turns []time.Duration, err error) {
	n := len(mc.tasks)
	batons := make([]chan struct{}, n)
	for i := range batons {
		batons[i] = make(chan struct{}, 1)
	}
	done := make([]bool, n)
	errs := make([]error, n)
	finished := make(chan struct{})
	var start time.Time // when the running core took the baton
	lastRef := time.Now()
	pass := func(from int) {
		turns = append(turns, time.Since(start))
		if ref != nil && time.Since(lastRef) >= refEvery {
			ref.sample()
			lastRef = time.Now()
		}
		for k := 1; k <= n; k++ {
			if j := (from + k) % n; !done[j] {
				batons[j] <- struct{}{}
				return
			}
		}
		finished <- struct{}{}
	}
	take := func(i int) {
		<-batons[i]
		start = time.Now()
	}
	for i, rt := range mc.rts {
		ops := 0
		rt.SetTraceHook(func(apprt.TraceOp) {
			if ops++; ops%quantum == 0 {
				pass(i)
				take(i)
			}
		})
		go func() {
			take(i)
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("core %d panicked: %v", i, r)
				}
				done[i] = true
				pass(i)
			}()
			mc.tasks[i].run(rt)
		}()
	}
	batons[0] <- struct{}{}
	<-finished
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	mc.m.Hier.FlushAll()
	mc.m.MC.Flush()
	return turns, nil
}

// check runs every task's output check and the machine-wide invariant
// checks. It issues no simulated operations.
func (mc *machine) check() error {
	var errs []error
	for i, t := range mc.tasks {
		if err := t.check(mc.rts[i]); err != nil {
			errs = append(errs, fmt.Errorf("core %d: %w", i, err))
		}
	}
	errs = append(errs, mc.m.Hier.CheckAll(), mc.m.MC.CheckIntegrity(), mc.m.MC.CounterCache().CheckCoherence())
	return errors.Join(errs...)
}

// specTask runs one copy of a SPEC profile (timing only).
type specTask struct {
	name string
	seed int64
}

func (t *specTask) run(rt *apprt.Runtime) {
	p, ok := spec.ByName(t.name)
	if !ok {
		panic(fmt.Sprintf("unknown SPEC profile %q", t.name))
	}
	spec.Run(rt, p, t.seed)
}

// check has nothing to compare: the SPEC generators discard their data.
func (t *specTask) check(*apprt.Runtime) error { return nil }

// pagerankTask builds a graph in simulated memory and runs two PageRank
// iterations, as exper's pagerank does. edges is the host copy of the
// same generated input that the check recomputes the ranks from.
type pagerankTask struct {
	gen   graph.Gen
	edges [][2]uint32
	rank  apprt.Array
}

func newPagerankTask(g graph.Gen, seed int64) *pagerankTask {
	g.Seed = seed
	return &pagerankTask{gen: g, edges: g.Edges()}
}

func (t *pagerankTask) run(rt *apprt.Runtime) {
	t.rank = graph.Build(rt, t.gen).PageRank(2)
}

// check reads the rank vector back through the functional image and
// compares it bit for bit with a host PageRank over the same edges.
func (t *pagerankTask) check(rt *apprt.Runtime) error {
	want := hostPageRank(t.gen.V, t.edges, 2)
	for v, w := range want {
		got := math.Float64frombits(peek(rt, t.rank.Base()+addr.Virt(v*8)))
		if got != w {
			return fmt.Errorf("pagerank: rank[%d] = %v, host PageRank gives %v", v, got, w)
		}
	}
	return nil
}

// hostPageRank is graph.PageRank on the host: the same CSR order and
// the same float operations, so the result is bit-identical.
func hostPageRank(n int, edges [][2]uint32, iters int) []float64 {
	const damping = 0.85
	xadj := make([]int, n+1)
	for _, e := range edges {
		xadj[e[0]+1]++
	}
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	adj := make([]uint32, len(edges))
	cur := append([]int(nil), xadj[:n]...)
	for _, e := range edges {
		adj[cur[e[0]]] = e[1]
		cur[e[0]]++
	}
	rank, next := make([]float64, n), make([]float64, n)
	for v := range rank {
		rank[v] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := range next {
			next[v] = (1 - damping) / float64(n)
		}
		for v := 0; v < n; v++ {
			d := xadj[v+1] - xadj[v]
			if d == 0 {
				continue
			}
			share := rank[v] / float64(d)
			for _, u := range adj[xadj[v]:xadj[v+1]] {
				next[u] = next[u] + damping*share
			}
		}
		rank, next = next, rank
	}
	return rank
}

// peek reads the 8-byte word at va straight from the functional image,
// translating through the process page table, so checking issues no
// simulated operation.
func peek(rt *apprt.Runtime, va addr.Virt) uint64 {
	pte, ok := rt.Process().AS.Lookup(va.Page())
	if !ok {
		return 0 // unmapped memory reads as zero
	}
	pa := pte.PPN.Addr() + addr.Phys(va.PageOffset())
	return rt.Kernel().Controller().Image().ReadU64(pa)
}

// churnTask is the write/shred workload (paper §7.2). Each round it
// allocates pages, stores one random word per page (the first touch, so
// the kernel clears the page), loads never-written blocks that must
// read zero and the stored word, re-initialises the range with
// ShredRange, loads the stored word again (now zero) and frees it.
// Every load is checked as it returns.
type churnTask struct {
	// blk[r][p] is the block of page p that round r stores val[r][p] in.
	blk               [][]int
	val               [][]uint64
	probes            int // zero-fill loads per page, fewer than a page's blocks
	spans             *opSpans
	loads, mismatches int
	firstBad          string
}

func newChurnTask(seed int64, pages, rounds, probes int, spans *opSpans) *churnTask {
	rng := rand.New(rand.NewSource(seed))
	t := &churnTask{blk: make([][]int, rounds), val: make([][]uint64, rounds), probes: probes, spans: spans}
	for r := range t.blk {
		t.blk[r], t.val[r] = make([]int, pages), make([]uint64, pages)
		for p := range t.blk[r] {
			t.blk[r][p] = rng.Intn(addr.BlocksPerPage)
			t.val[r][p] = rng.Uint64() | 1 // never zero, so a lost store shows
		}
	}
	return t
}

func (t *churnTask) run(rt *apprt.Runtime) {
	for r, blk := range t.blk {
		val := t.val[r]
		size := len(blk) * addr.PageSize
		word := func(va addr.Virt, p int) addr.Virt {
			return va + addr.Virt(p*addr.PageSize+blk[p]*addr.BlockSize)
		}
		va := rt.Malloc(size)
		for p := range blk {
			start := t.spans.begin()
			rt.Store(word(va, p), val[p])
			t.spans.end(opFirstTouch, start)
		}
		for p := range blk {
			for k := 1; k <= t.probes; k++ {
				b := (blk[p] + k*addr.BlocksPerPage/(t.probes+1)) % addr.BlocksPerPage
				a := va + addr.Virt(p*addr.PageSize+b*addr.BlockSize)
				start := t.spans.begin()
				got := rt.Load(a)
				t.spans.end(opZeroLoad, start)
				t.expect(a, got, 0)
			}
			t.expect(word(va, p), rt.Load(word(va, p)), val[p])
		}
		start := t.spans.begin()
		rt.ShredRange(va, len(blk))
		t.spans.end(opShredRange, start)
		for p := range blk {
			t.expect(word(va, p), rt.Load(word(va, p)), 0)
		}
		start = t.spans.begin()
		rt.Free(va, size)
		t.spans.end(opFree, start)
	}
}

func (t *churnTask) expect(va addr.Virt, got, want uint64) {
	t.loads++
	if got != want {
		if t.mismatches == 0 {
			t.firstBad = fmt.Sprintf("load %v = %#x, want %#x", va, got, want)
		}
		t.mismatches++
	}
}

func (t *churnTask) check(*apprt.Runtime) error {
	if t.mismatches > 0 {
		return fmt.Errorf("shred-churn: %d of %d loads wrong, first: %s", t.mismatches, t.loads, t.firstBad)
	}
	return nil
}
