// Package silentshredder's root benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation, each
// reporting its headline metric via b.ReportMetric so that
//
//	go test -bench=. -benchmem
//
// regenerates the numbers EXPERIMENTS.md records. Benchmarks run the
// experiments at smoke scale (the exper.Options Quick mode); use
// cmd/experiments for the full-scale tables.
package silentshredder_test

import (
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/exper"
	"silentshredder/internal/nvm"
	"silentshredder/internal/stats"
)

func benchOpts() exper.Options {
	return exper.Options{Cores: 2, Scale: 64, Quick: true}
}

// benchWorkloads is a representative subset spanning the write-savings
// spectrum (full sweeps belong to cmd/experiments).
var benchWorkloads = []string{"h264", "gcc", "mcf", "lbm", "pagerank"}

// BenchmarkComparisonSweep times the full comparison sweep end to end —
// the simulator's hot path (every workload under both controller modes).
// DESIGN.md §8's end-to-end speedup is this benchmark at sweep scale. It
// also reports the sweep's Fig 8-11 headline means: write savings
// (paper: 48.6%), read savings (paper: 50.3%), main-memory read speedup
// (paper: 3.3x) and relative IPC (paper: 1.064).
func BenchmarkComparisonSweep(b *testing.B) {
	var rs []exper.Result
	for i := 0; i < b.N; i++ {
		if rs = exper.CompareAll(benchOpts(), benchWorkloads); len(rs) == 0 {
			b.Fatalf("CompareAll(%v) returned no results", benchWorkloads)
		}
	}
	var ws, reads, sp, rel []float64
	for _, r := range rs {
		ws = append(ws, r.WriteSavings)
		reads = append(reads, r.ReadSavings)
		sp = append(sp, r.ReadSpeedup)
		rel = append(rel, r.RelativeIPC)
	}
	b.ReportMetric(stats.ArithMean(ws), "write_savings")
	b.ReportMetric(stats.ArithMean(reads), "read_savings")
	b.ReportMetric(stats.GeoMean(sp), "read_speedup")
	b.ReportMetric(stats.GeoMean(rel), "relative_ipc")
}

// BenchmarkTable2InitializationTechniques regenerates the measured
// Table 2 and reports Silent Shredder's per-page clear cost.
func BenchmarkTable2InitializationTechniques(b *testing.B) {
	var rows []exper.Table2Row
	for i := 0; i < b.N; i++ {
		rows = exper.Table2(benchOpts())
	}
	for _, r := range rows {
		switch r.Mechanism {
		case "Silent Shredder":
			b.ReportMetric(float64(r.ClearCycles), "shred_cycles/page")
			b.ReportMetric(float64(r.NVMWrites), "shred_nvm_writes/page")
		case "Non-temporal stores":
			b.ReportMetric(float64(r.ClearCycles), "nt_cycles/page")
		}
	}
}

// BenchmarkFig4MemsetKernelShare regenerates the §3 microbenchmark and
// reports the kernel-zeroing share of the first memset (paper: ~32%).
func BenchmarkFig4MemsetKernelShare(b *testing.B) {
	var points []exper.Fig4Point
	for i := 0; i < b.N; i++ {
		points = exper.Fig4(benchOpts(), nil)
	}
	if len(points) == 0 {
		b.Fatal("Fig4 returned no points")
	}
	b.ReportMetric(points[len(points)-1].KernelShare, "kernel_share")
}

// BenchmarkFig5ZeroingWriteShare regenerates the motivation experiment
// and reports how much of the graph workloads' write traffic kernel
// zeroing causes.
func BenchmarkFig5ZeroingWriteShare(b *testing.B) {
	var rows []exper.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = exper.Fig5(benchOpts())
	}
	var ks []float64
	for _, r := range rows {
		ks = append(ks, r.KernelZeroShare)
	}
	b.ReportMetric(stats.ArithMean(ks), "kernel_zero_write_share")
}

// BenchmarkFig12CounterCacheSweep reports the miss-rate drop across the
// counter-cache size sweep (the Figure 12 knee).
func BenchmarkFig12CounterCacheSweep(b *testing.B) {
	var points []exper.Fig12Point
	for i := 0; i < b.N; i++ {
		points = exper.Fig12(benchOpts(), nil)
	}
	if len(points) == 0 {
		b.Fatal("Fig12 returned no points")
	}
	b.ReportMetric(points[0].MissRate, "miss_rate_smallest")
	b.ReportMetric(points[len(points)-1].MissRate, "miss_rate_largest")
}

// BenchmarkAblationIV reports the re-encryptions the rejected option-one
// encoding incurs (Silent Shredder's encoding incurs zero).
func BenchmarkAblationIV(b *testing.B) {
	var rows []exper.AblationIVRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationIV(benchOpts())
	}
	for _, r := range rows {
		if r.Option == "inc-minors" {
			b.ReportMetric(float64(r.Reencryptions), "inc_minors_reencryptions")
		}
	}
}

// BenchmarkAblationDCW reports cells programmed per write with and
// without encryption under DCW (the diffusion effect).
func BenchmarkAblationDCW(b *testing.B) {
	var rows []exper.AblationDCWRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationDCW(benchOpts())
	}
	for _, r := range rows {
		switch r.Config {
		case "plaintext + DCW":
			b.ReportMetric(r.FlipsPerWrite, "plain_dcw_flips")
		case "encrypted + DCW":
			b.ReportMetric(r.FlipsPerWrite, "enc_dcw_flips")
		}
	}
}

// BenchmarkAblationMerkle reports the IPC ratio with counter
// authentication enabled (paper ballpark: ~2% overhead).
func BenchmarkAblationMerkle(b *testing.B) {
	var rows []exper.AblationMerkleRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationMerkle(benchOpts())
	}
	if len(rows) == 2 && rows[0].IPC > 0 {
		b.ReportMetric(rows[1].IPC/rows[0].IPC, "ipc_ratio_with_merkle")
	}
}

// BenchmarkAblationWT reports the counter-write amplification of a
// write-through counter cache.
func BenchmarkAblationWT(b *testing.B) {
	var rows []exper.AblationWTRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationWT(benchOpts())
	}
	if len(rows) == 2 && rows[0].CtrNVMWrites > 0 {
		b.ReportMetric(float64(rows[1].CtrNVMWrites)/float64(rows[0].CtrNVMWrites), "ctr_write_amplification")
	}
}

// benchBankedDevice builds a timing-only device with the banked drain
// scheduler on: 2 channels x 8 banks, queues 8 deep. The arrival
// interval is set so a uniform 16-bank stripe outpaces the 150ns write
// (each bank sees a write every 16x32 cycles > writeLat, queues drain)
// while a single-bank stream saturates its queue.
func benchBankedDevice() *nvm.Device {
	cfg := nvm.DefaultConfig()
	cfg.Banks = 8
	cfg.BankQueueDepth = 8
	cfg.BankArrival = 32
	return nvm.New(cfg)
}

// BenchmarkBankSingleBankPathological is the worst case for the banked
// write-queue model: every write lands on the same bank, so the queue
// saturates and each write pays the drain-stall path. The reported
// drain_stalls/op metric should sit near 1 once the queue fills.
func BenchmarkBankSingleBankPathological(b *testing.B) {
	d := benchBankedDevice()
	a := addr.Phys(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteBlock(a, nil)
	}
	b.ReportMetric(float64(d.DrainStalls())/float64(b.N), "drain_stalls/op")
}

// BenchmarkBankUniformInterleave is the best case: writes stripe
// uniformly across every channel and bank, so queues drain in the gaps
// and the scheduler's cost is just the per-bank lock and a queue append.
// bench-compare gating uses this as the uncontended reference.
func BenchmarkBankUniformInterleave(b *testing.B) {
	d := benchBankedDevice()
	nbanks := d.NumBanks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteBlock(addr.Phys(i%nbanks)*addr.BlockSize, nil)
	}
	b.ReportMetric(float64(d.DrainStalls())/float64(b.N), "drain_stalls/op")
}

// BenchmarkBankLegacyModel pins the cost of the path every existing
// configuration uses: bank modeling via the passive penalty heuristic,
// no scheduler allocated. This is the uncontended-regression guard for
// the refactor — the legacy write path must not have gotten slower.
func BenchmarkBankLegacyModel(b *testing.B) {
	d := nvm.New(nvm.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteBlock(addr.Phys(i%16)*addr.BlockSize, nil)
	}
}
