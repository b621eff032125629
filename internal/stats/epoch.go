package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// EpochSampler snapshots a Registry's statistics at fixed cycle
// intervals, turning end-of-run aggregate counters into time series
// ("shreds avoided over time", "counter-cache hit rate per epoch").
//
// Like the Registry it wraps, a sampler belongs to its machine's
// goroutine. A nil *EpochSampler is a valid, disabled sampler: Tick and
// Finish are no-ops, so the machine can call them unconditionally.
//
// Time is machine cycles, fed by the runtime's per-operation hook. Core
// cycle counts are not mutually ordered, so the sampler tracks a
// monotonic maximum: a Tick with an older timestamp than one already
// seen is ignored, which keeps epoch boundaries deterministic for a
// fixed workload schedule.
type EpochSampler struct {
	reg    *Registry
	every  uint64
	maxNow uint64
	next   uint64
	epochs []Epoch
	hists  []trackedHist
}

type trackedHist struct {
	name string
	h    *Histogram
	qs   []float64
}

// Epoch is one captured sample.
type Epoch struct {
	// Index is the epoch number (Cycles / interval).
	Index uint64
	// Cycles is the machine time the sample was taken at.
	Cycles uint64
	// Snap holds every registered stat's value at sample time.
	Snap Snapshot
	// Extra holds tracked-histogram quantiles, in TrackHistogram then
	// quantile order (see ExtraNames).
	Extra []float64
}

// NewEpochSampler samples reg every `every` cycles. every must be > 0.
func NewEpochSampler(reg *Registry, every uint64) *EpochSampler {
	if every == 0 {
		panic("stats: epoch interval must be positive")
	}
	return &EpochSampler{reg: reg, every: every, next: every}
}

// TrackHistogram adds per-epoch quantile columns for h, named
// "<name>_p<q*100>" in ExtraNames. Histograms are not part of Registry
// snapshots (only their registered derived scalars are), so time-series
// of full quantile sets opt in here.
func (s *EpochSampler) TrackHistogram(name string, h *Histogram, qs []float64) {
	if s == nil {
		return
	}
	s.hists = append(s.hists, trackedHist{name: name, h: h, qs: qs})
}

// ExtraNames returns the column names for Epoch.Extra.
func (s *EpochSampler) ExtraNames() []string {
	if s == nil {
		return nil
	}
	var out []string
	for _, th := range s.hists {
		for _, q := range th.qs {
			out = append(out, fmt.Sprintf("%s_p%g", th.name, q*100))
		}
	}
	return out
}

// Interval returns the sampling interval in cycles (0 on a nil
// sampler).
func (s *EpochSampler) Interval() uint64 {
	if s == nil {
		return 0
	}
	return s.every
}

// Tick advances machine time to now (monotonic max) and samples once if
// an epoch boundary was crossed. Cheap when no boundary passed: two
// compares. No-op on a nil sampler.
func (s *EpochSampler) Tick(now uint64) {
	if s == nil || now <= s.maxNow {
		return
	}
	s.maxNow = now
	if now < s.next {
		return
	}
	s.sample(now)
	s.next = (now/s.every + 1) * s.every
}

// Finish takes a final sample at now (or the latest time seen, if
// greater), capturing end-of-run totals regardless of boundary
// alignment. No-op on a nil sampler.
func (s *EpochSampler) Finish(now uint64) {
	if s == nil {
		return
	}
	if now > s.maxNow {
		s.maxNow = now
	}
	s.sample(s.maxNow)
	s.next = (s.maxNow/s.every + 1) * s.every
}

func (s *EpochSampler) sample(now uint64) {
	ep := Epoch{Index: now / s.every, Cycles: now, Snap: s.reg.Snapshot()}
	for _, th := range s.hists {
		ep.Extra = append(ep.Extra, th.h.Quantiles(th.qs)...)
	}
	s.epochs = append(s.epochs, ep)
}

// Epochs returns the captured samples in time order.
func (s *EpochSampler) Epochs() []Epoch {
	if s == nil {
		return nil
	}
	return s.epochs
}

// EpochColumn derives one exported value from an epoch series.
type EpochColumn struct {
	// Name is the CSV header / JSON key.
	Name string
	// Value computes the column for epochs[i].
	Value func(i int, epochs []Epoch) float64
}

// PathColumn exports the cumulative value of "component.stat".
func PathColumn(path string) EpochColumn {
	return EpochColumn{Name: path, Value: func(i int, eps []Epoch) float64 {
		v, _ := eps[i].Snap.Lookup(path)
		return v
	}}
}

// DeltaColumn exports the per-epoch increment of "component.stat" (the
// first epoch reports its cumulative value).
func DeltaColumn(path string) EpochColumn {
	return EpochColumn{Name: path + "_delta", Value: func(i int, eps []Epoch) float64 {
		cur, _ := eps[i].Snap.Lookup(path)
		if i == 0 {
			return cur
		}
		prev, _ := eps[i-1].Snap.Lookup(path)
		return cur - prev
	}}
}

// RatioColumn exports num / (den1 + den2 + ...) per epoch (0 when the
// denominator is 0). Use it for rates the registry does not expose
// directly, e.g. counter-cache hit rate = hits / (hits + misses).
func RatioColumn(name, num string, den ...string) EpochColumn {
	return EpochColumn{Name: name, Value: func(i int, eps []Epoch) float64 {
		n, _ := eps[i].Snap.Lookup(num)
		var d float64
		for _, p := range den {
			v, _ := eps[i].Snap.Lookup(p)
			d += v
		}
		if d == 0 {
			return 0
		}
		return n / d
	}}
}

// ExtraColumn exports Epoch.Extra[idx] under the given name (tracked
// histogram quantiles; see ExtraNames for the natural names).
func ExtraColumn(name string, idx int) EpochColumn {
	return EpochColumn{Name: name, Value: func(i int, eps []Epoch) float64 {
		// Out-of-range indexes (either direction) render as 0 rather
		// than panicking mid-export: a capture merged from a machine
		// without this tracked histogram simply shows an empty column.
		if idx < 0 || idx >= len(eps[i].Extra) {
			return 0
		}
		return eps[i].Extra[idx]
	}}
}

func formatEpochValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// EpochCSV writes the series as CSV: a header row ("run,epoch,cycles"
// plus column names) then one row per epoch. run labels the series so
// multiple runs concatenate into one file.
func EpochCSV(w io.Writer, run string, epochs []Epoch, cols []EpochColumn) error {
	if err := EpochCSVHeader(w, cols); err != nil {
		return err
	}
	return EpochCSVRows(w, run, epochs, cols)
}

// EpochCSVHeader writes only the header row — call once, then
// EpochCSVRows per run, to merge several runs into one file.
func EpochCSVHeader(w io.Writer, cols []EpochColumn) error {
	ew := &ErrWriter{W: w}
	ew.Str("run,epoch,cycles")
	for _, c := range cols {
		ew.Str(",")
		ew.Str(c.Name)
	}
	ew.Str("\n")
	return ew.Err
}

// EpochCSVRows writes one row per epoch with no header (see
// EpochCSVHeader).
func EpochCSVRows(w io.Writer, run string, epochs []Epoch, cols []EpochColumn) error {
	ew := &ErrWriter{W: w}
	for i, ep := range epochs {
		ew.Str(run)
		ew.Str(",")
		ew.Str(strconv.FormatUint(ep.Index, 10))
		ew.Str(",")
		ew.Str(strconv.FormatUint(ep.Cycles, 10))
		for _, c := range cols {
			ew.Str(",")
			ew.Str(formatEpochValue(c.Value(i, epochs)))
		}
		ew.Str("\n")
	}
	return ew.Err
}

// EpochJSON writes the series as a JSON array of objects with run,
// epoch, cycles and one key per column.
func EpochJSON(w io.Writer, run string, epochs []Epoch, cols []EpochColumn) error {
	type row struct {
		Run    string             `json:"run"`
		Epoch  uint64             `json:"epoch"`
		Cycles uint64             `json:"cycles"`
		Values map[string]float64 `json:"values"`
	}
	rows := make([]row, 0, len(epochs))
	for i, ep := range epochs {
		vals := make(map[string]float64, len(cols))
		for _, c := range cols {
			vals[c.Name] = c.Value(i, epochs)
		}
		rows = append(rows, row{Run: run, Epoch: ep.Index, Cycles: ep.Cycles, Values: vals})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
