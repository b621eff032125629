// Package telemetry exposes run statistics and latency-provenance
// aggregates as a live HTTP endpoint in the Prometheus text exposition
// format.
//
// The design keeps the simulator's determinism contract intact by
// splitting rendering from serving: WriteMetrics is a pure function
// from published samples to bytes (golden-testable, byte-identical for
// a given sample set), the Publisher is an atomic sample holder the
// simulation side updates at its own pace, and Handler is a plain
// http.Handler over the two — servable from a real listener
// (shredsim -serve, cmd/shredmon) or an httptest server identically.
// Go stdlib only; no client library.
package telemetry

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// Sample is one run's published state. Plain values throughout (the
// snapshot and aggregate are taken after the run or between rounds), so
// publishing never races with the machine.
type Sample struct {
	// Run labels the sample (workload name); becomes the run="..." label.
	Run string
	// Cycles and Instructions are the run's progress counters.
	Cycles       uint64
	Instructions uint64
	// IPC is the aggregate instructions-per-cycle.
	IPC float64
	// Snap is the full statistics registry capture.
	Snap stats.Snapshot
	// Spans is the latency-provenance aggregate; nil when span
	// recording is off (no span metrics are emitted).
	Spans *span.Agg
}

// WriteMetrics renders samples in the Prometheus text exposition
// format. Output is deterministic: samples in slice order, statistic
// sets sorted by name, span ops and layers in declaration order, tenant
// ids ascending. Metric names are shredsim_<set>_<stat> with
// non-alphanumeric characters folded to '_'.
func WriteMetrics(w io.Writer, samples []Sample) error {
	ew := &stats.ErrWriter{W: w}
	ew.Str("# shredsim telemetry (Prometheus text exposition format)\n")
	ew.Str("shredsim_samples " + strconv.Itoa(len(samples)) + "\n")
	for _, s := range samples {
		run := `{run="` + s.Run + `"}`
		ew.Str("shredsim_cycles_total" + run + " " + strconv.FormatUint(s.Cycles, 10) + "\n")
		ew.Str("shredsim_instructions_total" + run + " " + strconv.FormatUint(s.Instructions, 10) + "\n")
		ew.Str("shredsim_ipc" + run + " " + stats.FormatG(s.IPC) + "\n")

		sets := make([]stats.SnapshotSet, len(s.Snap.Sets))
		copy(sets, s.Snap.Sets)
		sort.SliceStable(sets, func(i, j int) bool { return sets[i].Name < sets[j].Name })
		for _, set := range sets {
			for _, st := range set.Stats {
				ew.Str("shredsim_" + sanitize(set.Name) + "_" + sanitize(st.Name) + run +
					" " + stats.FormatG(st.Value) + "\n")
			}
		}
		if s.Spans != nil {
			writeSpanMetrics(ew, s.Run, s.Spans)
		}
	}
	return ew.Err
}

// writeSpanMetrics emits the latency-provenance aggregate: per-op span
// counts and cycles with the per-layer busy-cycle split, then the same
// count/cycles pair per tenant.
func writeSpanMetrics(ew *stats.ErrWriter, run string, agg *span.Agg) {
	for op := span.Op(0); op < span.OpCount; op++ {
		a := &agg.Total[op]
		if a.Count == 0 {
			continue
		}
		labels := `{run="` + run + `",op="` + op.String() + `"}`
		ew.Str("shredsim_span_count" + labels + " " + strconv.FormatUint(a.Count, 10) + "\n")
		ew.Str("shredsim_span_cycles_total" + labels + " " + strconv.FormatUint(a.Cycles, 10) + "\n")
		for l := span.Layer(0); l < span.LayerCount; l++ {
			if a.Seg[l] == 0 {
				continue
			}
			ew.Str(`shredsim_span_layer_cycles_total{run="` + run + `",op="` + op.String() +
				`",layer="` + l.String() + `"} ` + strconv.FormatUint(a.Seg[l], 10) + "\n")
		}
	}
	for _, id := range agg.Tenants() {
		t := agg.Tenant(id)
		for op := span.Op(0); op < span.OpCount; op++ {
			a := &t[op]
			if a.Count == 0 {
				continue
			}
			labels := `{run="` + run + `",tenant="` + strconv.Itoa(int(id)) + `",op="` + op.String() + `"}`
			ew.Str("shredsim_span_tenant_count" + labels + " " + strconv.FormatUint(a.Count, 10) + "\n")
			ew.Str("shredsim_span_tenant_cycles_total" + labels + " " + strconv.FormatUint(a.Cycles, 10) + "\n")
		}
	}
}

// Publisher is an atomic sample holder: the simulation goroutine
// publishes, HTTP handler goroutines read, no locks held across either.
// The zero value is ready to use and serves an empty sample set.
type Publisher struct {
	v atomic.Value // []Sample
}

// Publish replaces the current sample set. The slice is retained;
// callers must not mutate it afterwards.
func (p *Publisher) Publish(samples []Sample) { p.v.Store(samples) }

// Samples returns the most recently published sample set (nil before
// the first Publish).
func (p *Publisher) Samples() []Sample {
	s, _ := p.v.Load().([]Sample)
	return s
}

// Handler serves the telemetry endpoints over p:
//
//	/metrics  – the Prometheus text rendering of the published samples
//	/healthz  – liveness ("ok")
func Handler(p *Publisher) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, p.Samples())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

// sanitize folds a statistic path segment into the Prometheus metric
// name charset: [a-zA-Z0-9_], everything else becomes '_'.
func sanitize(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
