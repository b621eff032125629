package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// Chrome trace_event exporter. The output is the JSON Object Format
// ({"traceEvents":[...]}) understood by chrome://tracing and Perfetto.
// Every machine event becomes an instant event (ph "i", thread scope);
// timestamps are microseconds derived from core cycles at the machine's
// clock frequency. Each run in a multi-run export becomes a process
// (pid = run index) and each core a thread (tid = core + 1; tid 0 is
// the "machine" context for events emitted outside any core).
//
// The exporter is fully deterministic: events are written in emission
// order within a run, runs in index order, and all floating-point
// formatting is fixed-precision.

// TraceRun is one machine's worth of events, labeled for export.
type TraceRun struct {
	// Name labels the run (becomes the process_name metadata).
	Name string
	// Events are the run's events in emission order.
	Events []Event
	// Spans are the run's latency-provenance spans (ph "X" complete
	// events, nested by timestamp in the viewer). Optional.
	Spans []span.Span
	// Dropped is the run's event-ring wrap count. Non-zero counts are
	// exported as a dropped_events metadata event so a truncated trace
	// is visibly truncated instead of silently short.
	Dropped uint64
}

// CyclesPerMicrosecond converts core cycles to trace microseconds
// (2 GHz machine clock; see internal/clock.FrequencyHz).
const CyclesPerMicrosecond = 2000

// WriteChromeTrace writes runs as a Chrome trace_event JSON document.
func WriteChromeTrace(w io.Writer, runs []TraceRun) error {
	bw := &stats.ErrWriter{W: w}
	bw.Str(`{"traceEvents":[` + "\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.Str(",\n")
		}
		first = false
		bw.Str(line)
	}
	for pid, run := range runs {
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid, quoteJSON(run.Name)))
		for _, tid := range runTids(run.Events) {
			name := "machine"
			if tid > 0 {
				name = fmt.Sprintf("core %d", tid-1)
			}
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid, tid, quoteJSON(name)))
		}
		if run.Dropped > 0 {
			emit(fmt.Sprintf(`{"name":"dropped_events","ph":"M","pid":%d,"tid":0,"args":{"count":%d}}`,
				pid, run.Dropped))
		}
		for _, ev := range run.Events {
			emit(chromeInstant(pid, ev))
		}
		for _, sp := range run.Spans {
			emit(chromeSpan(pid, sp))
		}
	}
	bw.Str("\n]}\n")
	return bw.Err
}

// runTids returns the sorted set of thread ids present in events.
func runTids(events []Event) []int {
	seen := map[int]bool{}
	for _, ev := range events {
		seen[int(ev.Core)+1] = true
	}
	tids := make([]int, 0, len(seen))
	for t := range seen {
		tids = append(tids, t)
	}
	sort.Ints(tids)
	return tids
}

func chromeInstant(pid int, ev Event) string {
	var sb strings.Builder
	sb.WriteString(`{"name":`)
	sb.WriteString(quoteJSON(ev.Kind.String()))
	sb.WriteString(`,"ph":"i","s":"t","cat":"machine","ts":`)
	sb.WriteString(formatTS(ev.TS))
	sb.WriteString(`,"pid":`)
	sb.WriteString(strconv.Itoa(pid))
	sb.WriteString(`,"tid":`)
	sb.WriteString(strconv.Itoa(int(ev.Core) + 1))
	sb.WriteString(`,"args":{"seq":`)
	sb.WriteString(strconv.FormatUint(ev.Seq, 10))
	if ev.Addr != 0 {
		sb.WriteString(`,"addr":"0x`)
		sb.WriteString(strconv.FormatUint(ev.Addr, 16))
		sb.WriteString(`"`)
	}
	if ev.Arg != 0 {
		sb.WriteString(`,"arg":`)
		sb.WriteString(strconv.FormatUint(ev.Arg, 10))
	}
	sb.WriteString(`}}`)
	return sb.String()
}

// chromeSpan renders one latency-provenance span as a complete event
// ("ph":"X"): ts is the span's start, dur its cycle count, both in
// trace microseconds. Nested spans share a thread and nest by interval
// in the viewer. Only non-zero layer segments are emitted, keyed by
// layer name, alongside seq/addr/tenant.
func chromeSpan(pid int, sp span.Span) string {
	var sb strings.Builder
	sb.WriteString(`{"name":`)
	sb.WriteString(quoteJSON(sp.Op.String()))
	sb.WriteString(`,"ph":"X","cat":"span","ts":`)
	sb.WriteString(formatTS(sp.Start))
	sb.WriteString(`,"dur":`)
	sb.WriteString(formatTS(sp.Cycles))
	sb.WriteString(`,"pid":`)
	sb.WriteString(strconv.Itoa(pid))
	sb.WriteString(`,"tid":`)
	sb.WriteString(strconv.Itoa(int(sp.Core) + 1))
	sb.WriteString(`,"args":{"seq":`)
	sb.WriteString(strconv.FormatUint(sp.Seq, 10))
	if sp.Addr != 0 {
		sb.WriteString(`,"addr":"0x`)
		sb.WriteString(strconv.FormatUint(sp.Addr, 16))
		sb.WriteString(`"`)
	}
	if sp.Tenant >= 0 {
		sb.WriteString(`,"tenant":`)
		sb.WriteString(strconv.Itoa(int(sp.Tenant)))
	}
	for l := span.Layer(0); l < span.LayerCount; l++ {
		if sp.Seg[l] == 0 {
			continue
		}
		sb.WriteString(`,`)
		sb.WriteString(quoteJSON(l.String()))
		sb.WriteString(`:`)
		sb.WriteString(strconv.FormatUint(sp.Seg[l], 10))
	}
	sb.WriteString(`}}`)
	return sb.String()
}

// formatTS renders a cycle count as fixed-precision microseconds
// (three decimals — half-nanosecond cycle resolution at 2 GHz).
func formatTS(cycles uint64) string {
	whole := cycles / CyclesPerMicrosecond
	frac := cycles % CyclesPerMicrosecond
	// frac/2000 µs in thousandths: frac*1000/2000 = frac/2.
	return fmt.Sprintf("%d.%03d", whole, frac/2)
}

func quoteJSON(s string) string { return strconv.Quote(s) }
