package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The reference loop measures how fast the host runs memory-bound code
// at the moment, so host times can be rescaled to a calm host.
//
// The benchmark runs on a shared host whose memory system slows by up
// to ~2.5× for seconds to minutes at a time, while register-only code
// holds steady. The simulator is memory-bound, so its host times follow
// those phases. The loop is a frozen set-associative cache model,
// owned by the benchmark: no change to the simulator moves it. Its
// tables are 34 MB, about the simulator's working set, and its access
// mix is the simulator's hot path (tag scans, LRU shifts, a
// pseudo-random address stream).
//
// Samples are short slices interleaved with the simulation (see
// machine.simulate), so a pair and its reference share the host's
// state. Each stretch of wall time between two samples is rescaled by
// the mean ns per access of those two samples:
// wall × refNominalNs / ns-per-access.

const (
	refL1Sets, refL1Ways   = 512, 8
	refLLCSets, refLLCWays = 1 << 18, 16

	// refSlice is the accesses one sample makes: ~3 ms on a calm host.
	refSlice = 50_000
	// refEvery is the most simulation host time between two samples.
	refEvery = 200 * time.Millisecond
	// refNominalNs is the loop's ns per access on a calm host (the
	// 2-CPU VM in baseline.json, in its quietest runs), so rescaled
	// times read as seconds there.
	refNominalNs = 60.0
)

// reference is the loop's state and the tally since the last take.
type reference struct {
	l1, llc []uint64
	x, hot  uint64

	lastEnd  time.Time // when the last sample ended
	lastNs   float64   // the last sample's ns per access
	samples  int
	spent    time.Duration // host time of the samples
	wall     time.Duration // host time between the samples
	rescaled float64       // wall rescaled to the calm host, in seconds
}

// newReference maps the loop's tables outside the Go heap, so they do
// not change the collector's pacing of the simulation, and warms them.
func newReference() (*reference, error) {
	words := (refL1Sets*refL1Ways + refLLCSets*refLLCWays)
	mem, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	r := &reference{l1: all[:refL1Sets*refL1Ways], llc: all[refL1Sets*refL1Ways:], x: 88172645463325252}
	for i := 0; i < 40; i++ {
		r.sample()
	}
	r.take()
	return r, nil
}

// sample runs one slice of the loop. The wall time since the previous
// sample, if any since the last take, is rescaled by the mean of the
// two samples' speeds.
func (r *reference) sample() {
	if r == nil {
		return
	}
	start := time.Now()
	for k := 0; k < refSlice; k++ {
		r.x ^= r.x << 13
		r.x ^= r.x >> 7
		r.x ^= r.x << 17
		var blk uint64
		if r.x&3 != 0 {
			r.hot += 1 + r.x>>60 // a strided stream over 4 MB
			blk = r.hot & (1<<16 - 1)
		} else {
			blk = r.x >> 34 // a random block of 1 TB
		}
		tag := blk + 1
		h := blk * 0x9E3779B97F4A7C15
		s := int(h>>32) % refL1Sets
		if !lruProbe(r.l1[s*refL1Ways:(s+1)*refL1Ways], tag) {
			s = int(h>>40) % refLLCSets
			lruProbe(r.llc[s*refLLCWays:(s+1)*refLLCWays], tag)
		}
	}
	end := time.Now()
	ns := float64(end.Sub(start).Nanoseconds()) / refSlice
	if r.samples > 0 {
		gap := start.Sub(r.lastEnd)
		r.wall += gap
		r.rescaled += gap.Seconds() * refNominalNs / ((r.lastNs + ns) / 2)
	}
	r.samples++
	r.spent += end.Sub(start)
	r.lastEnd, r.lastNs = end, ns
}

// lruProbe looks tag up in a set kept in most-recently-used order and
// moves it, or inserts it in place of the least recently used, to the
// front. It reports whether tag was present.
func lruProbe(set []uint64, tag uint64) bool {
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return true
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = tag
	return false
}

// tally is what a reference measured between its first and last
// sample since the last take.
type tally struct {
	spent    time.Duration // host time of the samples themselves
	wall     time.Duration // host time between the samples
	rescaled float64       // wall rescaled to the calm host, in seconds
}

// speed is the wall time's mean rescaling factor: 1 on a calm host.
func (t tally) speed() float64 {
	if t.rescaled == 0 {
		return 1
	}
	return t.rescaled / t.wall.Seconds()
}

// take returns the tally and starts a new one. A nil reference
// measured nothing.
func (r *reference) take() tally {
	if r == nil {
		return tally{}
	}
	t := tally{spent: r.spent, wall: r.wall, rescaled: r.rescaled}
	r.samples, r.spent, r.wall, r.rescaled = 0, 0, 0, 0
	return t
}
