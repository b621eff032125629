package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"silentshredder/internal/exper"
	"silentshredder/internal/workloads/graph"
)

// smallPagerank is graph-pagerank shrunk for tests.
func smallPagerank() *workload {
	g := graph.Gen{V: 512, E: 4096, Skew: 1.2}
	return &workload{
		name: "graph-pagerank", cores: 2, scale: 64, functional: true,
		newTask: func(seed int64, _ *opSpans) task { return newPagerankTask(g, seed) },
	}
}

func smallChurn() *workload {
	w := newChurn(2, 16, 2, 4)
	w.scale = 64
	return w
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			if !valid.MatchString(x.Name) {
				t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", x.Name)
			}
			m[x.Name] = x.Unit
		}
		return m
	}
	same := func(kind string, want map[string]string, got result) {
		t.Helper()
		if got.Failed != 0 {
			t.Fatalf("%s run failed %d of %d", kind, got.Failed, got.Attempted)
		}
		for name, m := range got.Metrics {
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) not declared in BENCHMARK.json as such", kind, name, m.Unit)
			}
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("%s run printed %d metrics, BENCHMARK.json declares %d", kind, len(got.Metrics), len(want))
		}
	}
	w := smallChurn()
	same("end-to-end", declared(spec.EndToEnd), measure(w, 1, 1e-3, io.Discard))
	same("traced", declared(spec.PerLayer), tracedRun(w, 1, io.Discard))
}

func TestTracedRunLedgerAndIdentity(t *testing.T) {
	res := tracedRun(smallChurn(), 2, io.Discard)
	if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
		t.Fatalf("traced run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if res.Metrics["trace.overhead"].Value <= 0 {
		t.Errorf("trace.overhead = %v, want > 0", res.Metrics["trace.overhead"].Value)
	}
	for _, name := range []string{"apprt.first_touch_ns.p50", "apprt.zero_load_ns.p99", "apprt.shred_range_us.p50", "apprt.free_us.p50"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on shred-churn", name, res.Metrics[name].Value)
		}
	}
	if res.Metrics["memctrl.shred_commands.ss"].Value == 0 || res.Metrics["memctrl.zeroing_writes.bl"].Value == 0 {
		t.Error("shred-churn cleared no pages")
	}
}

func TestParseTopFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseTop(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cache": 1.170, "hier": 0.180, "workloads": 0.440, "runtime": 0.120,
		"memctrl": 0.070, "integrity": 0.060, "aes": 0.050, "physmem": 0.030,
		"other": 0.240 + 0.040, // addr, stats and the 40ms pprof did not list
	}
	var sum float64
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("%s = %.4f s, want %.4f s", k, v, want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s missing from the ledger", k)
		}
	}
	if math.Abs(sum-2.400) > 1e-9 {
		t.Errorf("ledger sums to %.4f s, profile total is 2.400 s", sum)
	}
}

func TestParseTopRejectsBadListings(t *testing.T) {
	for name, text := range map[string]string{
		"no total": "      flat  flat%   sum%        cum   cum%\n     10ms 50.00% 50.00%      10ms 50.00%  runtime.futex\n",
		"over total": "Showing nodes accounting for 30ms, 100% of 20ms total\n" +
			"     30ms 100.00% 100.00%      30ms 100.00%  runtime.futex\n",
	} {
		if _, err := parseTop(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parseTop accepted it", name)
		}
	}
}

func TestLedgerEntry(t *testing.T) {
	for fn, want := range map[string]string{
		"silentshredder/internal/cache.(*Cache).probeWay":           "cache",
		"silentshredder/internal/countercache.(*Cache).Get":         "countercache",
		"silentshredder/internal/workloads/spec.Run.func1":          "workloads",
		"silentshredder/internal/workloads/graph.(*Graph).PageRank": "workloads",
		"main.(*churnTask).run":                                     "workloads",
		"math/rand.(*Rand).Int31n":                                  "workloads",
		"crypto/internal/fips140/sha256.blockAMD64":                 "integrity",
		"runtime.mallocgc":                                          "runtime",
		"internal/runtime/maps.h2":                                  "runtime",
		"silentshredder/internal/addr.Phys.BlockIndex":              "other",
		"silentshredder/internal/stats.(*Histogram).Observe":        "other",
		"slices.SortFunc[go.shape.int]":                             "other",
		"silentshredder/internal/nvm.load[go.shape.uint64]":         "nvm",
	} {
		if got := ledgerEntry(fn); got != want {
			t.Errorf("ledgerEntry(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestOutputChecksPass(t *testing.T) {
	for _, w := range []*workload{smallPagerank(), smallChurn()} {
		res := measure(w, 3, 1e-3, io.Discard)
		if !res.Correct || res.Failed != 0 || res.Attempted != minPairs {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// A deliberately wrong expectation must fail the run: the host copy of
// one instance's edges is altered, so its reference ranks no longer
// match what the simulated PageRank computed.
func TestWrongExpectationFailsRun(t *testing.T) {
	w := smallPagerank()
	newTask := w.newTask
	w.newTask = func(seed int64, spans *opSpans) task {
		pt := newTask(seed, spans).(*pagerankTask)
		pt.edges[0][1] = (pt.edges[0][1] + 1) % uint32(pt.gen.V)
		return pt
	}
	var out bytes.Buffer
	res := measure(w, 3, 1e-3, &out)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run with a wrong expectation: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(out.String(), "host PageRank gives") {
		t.Errorf("failure not reported:\n%s", out.String())
	}
}

func TestChurnWrongLoadFails(t *testing.T) {
	ct := &churnTask{}
	ct.expect(0x1000, 0, 0)
	ct.expect(0x2000, 7, 0)
	if err := ct.check(nil); err == nil || !strings.Contains(err.Error(), "1 of 2 loads wrong") {
		t.Fatalf("check = %v, want one wrong load of two", err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "spec-mcf", "-trace", "2"},
		{"-workload", "spec-mcf", "-seconds", "0"},
		{"-bogus"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, stdout.String())
		}
	}
}

// At exper's seeds (seed 0), the paper-scale workloads reproduce
// exper.Compare bit for bit, and spec-mcf its committed mcf row.
func TestFaithfulToExper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	for _, c := range []struct {
		workload, exper string
		rounded         []string
	}{
		{"spec-mcf", "mcf", []string{"0.376", "0.425", "1.66", "1.093"}},
		{"graph-pagerank", "pagerank", nil},
	} {
		w, _ := workloadByName(c.workload)
		p := runPair(w, 0, nil, nil)
		if p.err != nil {
			t.Fatalf("%s: %v", c.workload, p.err)
		}
		r := exper.Compare(exper.DefaultOptions(), c.exper)
		want := paperMetrics{r.WriteSavings, r.ReadSavings, r.ReadSpeedup, r.RelativeIPC}
		if p.paper != want {
			t.Errorf("%s = %+v, exper.Compare gives %+v", c.workload, p.paper, want)
		}
		got := []float64{p.paper.WriteSavings, p.paper.ReadSavings, p.paper.ReadSpeedup, p.paper.RelativeIPC}
		for i, r := range c.rounded {
			decimals := len(r) - strings.IndexByte(r, '.') - 1
			if s := strconv.FormatFloat(got[i], 'f', decimals, 64); s != r {
				t.Errorf("%s metric %d = %v, want %s", c.workload, i, got[i], r)
			}
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestReferenceRescales(t *testing.T) {
	var none *reference
	none.sample()
	if got := none.take(); got != (tally{}) || got.speed() != 1 {
		t.Errorf("nil reference measured %+v at speed %v, want nothing at speed 1", got, got.speed())
	}
	r, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	r.sample()
	if got := r.take(); got.spent <= 0 || got.wall != 0 || got.rescaled != 0 {
		t.Errorf("one sample measured %+v, want only its own time", got)
	}
	r.sample()
	time.Sleep(20 * time.Millisecond)
	r.sample()
	got := r.take()
	if got.wall < 20*time.Millisecond || got.rescaled <= 0 || got.speed() <= 0 {
		t.Errorf("two samples 20 ms apart measured %+v", got)
	}
	if want := got.wall.Seconds() * got.speed(); math.Abs(got.rescaled-want) > 1e-12 {
		t.Errorf("rescaled %v, want wall × speed = %v", got.rescaled, want)
	}
	if again := r.take(); again != (tally{}) {
		t.Errorf("take did not reset the tally: %+v", again)
	}
}
