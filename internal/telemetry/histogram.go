package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bin layout. Positive values land in log-linear bins: the
// octave (floor log₂ v) selects a power-of-two range, split into
// subBuckets linear sub-bins — the circllhist construction with base 2
// instead of base 10, giving a worst-case relative error of
// 1/subBuckets per bin over the whole positive int64 range. Two special
// bins bracket the range: bin 0 collects zero and negative observations,
// and the last bin, with upper bound +Inf, is kept for overflow beyond
// the int64 range, which Observe cannot reach.
const (
	subBits    = 3
	subBuckets = 1 << subBits // 8 linear sub-bins per octave
	octaves    = 63           // positive int64 exponents 0..62

	zeroBin     = 0
	overflowBin = 1 + octaves*subBuckets
	numBins     = overflowBin + 1
)

// Histogram is a log-linear latency histogram (values are
// conventionally nanoseconds, but any int64 magnitude works). All methods
// are safe for concurrent use; Observe is lock-free and allocation-free.
type Histogram struct {
	name  string
	count atomic.Uint64
	sum   atomic.Int64
	bins  []atomic.Uint64 // len numBins, allocated at construction
}

func newHistogram(name string) *Histogram {
	return &Histogram{name: name, bins: make([]atomic.Uint64, numBins)}
}

// binIndex maps a value to its bin.
func binIndex(v int64) int {
	if v <= 0 {
		return zeroBin
	}
	u := uint64(v)
	e := uint(bits.Len64(u)) - 1
	d := u - 1<<e // offset within the octave, < 2^e
	var sub uint64
	if e <= subBits {
		sub = d << (subBits - e)
	} else {
		sub = d >> (e - subBits)
	}
	return 1 + int(e)*subBuckets + int(sub)
}

// binLower returns the inclusive lower bound of a bin.
func binLower(i int) float64 {
	if i <= zeroBin {
		return math.Inf(-1) // bin 0 holds everything ≤ 0
	}
	if i >= overflowBin {
		return math.Ldexp(1, 63)
	}
	k := i - 1
	e := k / subBuckets
	s := k % subBuckets
	w := math.Ldexp(1, e) // 2^e
	return w + float64(s)*w/subBuckets
}

// binUpper returns the exclusive upper bound of a bin.
func binUpper(i int) float64 {
	if i <= zeroBin {
		return 0
	}
	if i >= overflowBin {
		return math.Inf(1)
	}
	k := i - 1
	e := k / subBuckets
	s := k % subBuckets
	w := math.Ldexp(1, e)
	return w + float64(s+1)*w/subBuckets
}

// observe records v unconditionally (kill switch already checked).
func (h *Histogram) observe(v int64, bin int) {
	h.bins[bin].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Observe records one value. Zero and negative values count in the
// dedicated bottom bin (and still contribute to Count and Sum).
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.observe(v, binIndex(v))
}

// reset zeroes all state.
func (h *Histogram) reset() {
	for i := range h.bins {
		h.bins[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// HistogramSnapshot is a point-in-time copy of a histogram, safe to read
// without synchronization. Two snapshots are equal (==-comparable) iff
// their bin contents, counts, and sums are equal.
type HistogramSnapshot struct {
	Count uint64
	Sum   int64
	Bins  [numBins]uint64
}

// Snapshot copies the histogram's current state. Concurrent observers may
// land between bin reads; the snapshot is internally consistent enough
// for reporting (counts never exceed what was observed).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.bins {
		s.Bins[i] = h.bins[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Bucket is one populated histogram bin for export: the bin's exclusive
// upper bound and its (non-cumulative) observation count.
type Bucket struct {
	Upper float64
	Count uint64
}

// AppendBuckets appends one Bucket per populated bin in ascending value
// order to dst (reusing its backing array) and returns the extended
// slice. It reports the bottom (≤ 0) bin with upper bound 0 and the
// overflow bin with +Inf, so accumulating the counts in order yields a
// valid cumulative bucket series for monitoring-style expositions
// (circllhist-to-Prometheus mapping). Scrapers that hold dst across scrapes read
// bucket series allocation-free in steady state.
func (s *HistogramSnapshot) AppendBuckets(dst []Bucket) []Bucket {
	for i := 0; i < numBins; i++ {
		if n := s.Bins[i]; n != 0 {
			dst = append(dst, Bucket{Upper: binUpper(i), Count: n})
		}
	}
	return dst
}

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bins. The exact
// edges are pinned to the bin bounds: q=0 returns the inclusive lower
// bound of the first populated bin and q=1 the exclusive upper bound of
// the last populated bin (matching Max), so a single-bucket histogram
// reports its bin's [lower, upper) range rather than collapsing to the
// midpoint at both ends. Interior quantiles interpolate linearly within
// the bin containing the continuous rank q·count, so q sweeping a bin's
// rank range sweeps its value range instead of jumping bin midpoints.
// Returns 0 for empty histograms, 0 for observations in the bottom (≤ 0)
// bin, and +Inf for the overflow bin.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		for i := 0; i < numBins; i++ {
			if s.Bins[i] != 0 {
				return binEstimate(i, binLower(i))
			}
		}
		return 0
	}
	if q >= 1 {
		return s.Max()
	}
	rank := q * float64(s.Count) // continuous rank in (0, count)
	var cum uint64
	for i := 0; i < numBins; i++ {
		if s.Bins[i] == 0 {
			continue
		}
		prev := cum
		cum += s.Bins[i]
		if float64(cum) >= rank {
			frac := (rank - float64(prev)) / float64(s.Bins[i])
			return binEstimate(i, binLower(i)+frac*(binUpper(i)-binLower(i)))
		}
	}
	return math.Inf(1)
}

// binEstimate clamps a within-bin value estimate to the representable
// conventions of the two special bins: the bottom bin always reports 0
// (its lower bound is -Inf) and the overflow bin +Inf.
func binEstimate(i int, v float64) float64 {
	switch i {
	case zeroBin:
		return 0
	case overflowBin:
		return math.Inf(1)
	}
	return v
}

// Max returns the exclusive upper bound of the highest populated bin
// (0 when empty or when only the bottom bin is populated, +Inf when the
// overflow bin is populated).
func (s HistogramSnapshot) Max() float64 {
	for i := numBins - 1; i > zeroBin; i-- {
		if s.Bins[i] != 0 {
			return binUpper(i)
		}
	}
	return 0
}
