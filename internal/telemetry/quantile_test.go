package telemetry

import (
	"math"
	"testing"
)

// Table-driven audit of HistogramSnapshot.Quantile at the exact edges
// (q=0, q=1), for single-bucket histograms, and across bin boundaries.
// These pin the contract:
//
//   - q=0 reports the inclusive lower bound of the first populated bin,
//   - q=1 reports the exclusive upper bound of the last populated bin
//     (identical to Max),
//   - interior quantiles interpolate linearly inside the bin holding the
//     continuous rank q·count, so they never land a whole bin off,
//   - the bottom (≤ 0) bin always reports 0 and the overflow bin +Inf.
func TestQuantileEdgesTable(t *testing.T) {
	withEnabled(t, true)

	// bin bounds used by the expectations below
	lo := func(v int64) float64 { return binLower(binIndex(v)) }
	hi := func(v int64) float64 { return binUpper(binIndex(v)) }
	mid := func(v int64) float64 { return (lo(v) + hi(v)) / 2 }

	tests := []struct {
		name string
		obs  []int64
		q    float64
		want float64
	}{
		// Empty histogram: every quantile is 0.
		{"empty q0", nil, 0, 0},
		{"empty q1", nil, 1, 0},
		{"empty p50", nil, 0.5, 0},

		// Single observation = single-bucket histogram: q sweeps the
		// bin's [lower, upper) range, with the midpoint at p50.
		{"single q0", []int64{100}, 0, lo(100)},
		{"single p50", []int64{100}, 0.5, mid(100)},
		{"single q1", []int64{100}, 1, hi(100)},

		// Many observations in one bucket behave identically: the edges
		// stay pinned to the bin bounds, not the midpoint.
		{"single-bucket q0", []int64{64, 64, 64, 64}, 0, lo(64)},
		{"single-bucket p50", []int64{64, 64, 64, 64}, 0.5, mid(64)},
		{"single-bucket q1", []int64{64, 64, 64, 64}, 1, hi(64)},

		// Out-of-range q clamps to the edges.
		{"q<0 clamps", []int64{100}, -0.5, lo(100)},
		{"q>1 clamps", []int64{100}, 1.5, hi(100)},

		// Two buckets, equal weight: p50 is exactly the shared boundary
		// (rank 1.0 of 2 exhausts the lower bin), not the lower bin's
		// midpoint — the off-by-one-bucket interpolation this test pins.
		{"two-bucket p50 at boundary", []int64{1, 2}, 0.5, hi(1)},
		{"two-bucket q0", []int64{1, 2}, 0, lo(1)},
		{"two-bucket q1", []int64{1, 2}, 1, hi(2)},
		// p25 is the midpoint of the lower bin, p75 of the upper.
		{"two-bucket p25", []int64{1, 2}, 0.25, mid(1)},
		{"two-bucket p75", []int64{1, 2}, 0.75, mid(2)},

		// Bottom bin: zero and negative observations report 0 at every q.
		{"zero-bin q0", []int64{0, -5}, 0, 0},
		{"zero-bin p50", []int64{0, -5}, 0.5, 0},
		{"zero-bin q1", []int64{0, -5}, 1, 0},

		// Mixed bottom bin + regular bin: q=0 hits the bottom bin (0),
		// q=1 the regular bin's upper bound.
		{"mixed q0", []int64{-1, 100}, 0, 0},
		{"mixed q1", []int64{-1, 100}, 1, hi(100)},

		// MaxInt64 lands in the last regular bin, not overflow.
		{"maxint q1", []int64{math.MaxInt64}, 1, binUpper(overflowBin - 1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := observeAll(tc.obs)
			if got := h.Snapshot().Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%g) over %v = %g, want %g", tc.q, tc.obs, got, tc.want)
			}
		})
	}
}

// TestQuantileOverflowEdges pins the overflow bin to +Inf at every
// quantile that reaches it.
func TestQuantileOverflowEdges(t *testing.T) {
	withEnabled(t, true)
	h := newHistogram("edge")
	h.observe(math.MaxInt64, overflowBin)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); !math.IsInf(got, 1) {
			t.Errorf("Quantile(%g) over overflow-only = %g, want +Inf", q, got)
		}
	}
	// overflow mixed with a regular bin: q=0 stays finite
	h.Observe(10)
	s = h.Snapshot()
	if got := s.Quantile(0); math.IsInf(got, 1) {
		t.Errorf("Quantile(0) with finite min = %g, want finite", got)
	}
	if got := s.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("Quantile(1) with overflow max = %g, want +Inf", got)
	}
}

// TestQuantileMatchesMaxAtOne: q=1 and Max agree on every shape.
func TestQuantileMatchesMaxAtOne(t *testing.T) {
	withEnabled(t, true)
	shapes := [][]int64{
		{}, {0}, {1}, {5, 5, 5}, {1, 1000, 1 << 40}, {-3, 7}, {math.MaxInt64},
	}
	for _, obs := range shapes {
		s := observeAll(obs).Snapshot()
		if q1, max := s.Quantile(1), s.Max(); q1 != max {
			t.Errorf("obs %v: Quantile(1)=%g != Max()=%g", obs, q1, max)
		}
	}
}

// TestQuantileMonotone: quantiles are non-decreasing in q, and the
// interpolated estimate never leaves the bounds of the populated bins.
func TestQuantileMonotone(t *testing.T) {
	withEnabled(t, true)
	h := observeAll([]int64{3, 17, 17, 90, 1024, 1025, 70000})
	s := h.Snapshot()
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%g gave %g after %g", q, v, prev)
		}
		prev = v
	}
	if min, max := s.Quantile(0), s.Quantile(1); min < binLower(binIndex(3)) || max > binUpper(binIndex(70000)) {
		t.Errorf("edge quantiles [%g, %g] escape populated bins", min, max)
	}
}

// TestAppendBucketsCumulative: accumulating AppendBuckets counts in order
// yields a valid cumulative series ending at Count, with strictly
// ascending upper bounds, the bottom bin reported as upper bound 0.
func TestAppendBucketsCumulative(t *testing.T) {
	withEnabled(t, true)
	h := observeAll([]int64{-2, 0, 1, 5, 5, 300, 1 << 50})
	s := h.Snapshot()
	buckets := s.AppendBuckets(nil)
	if len(buckets) == 0 || buckets[0].Upper != 0 {
		t.Fatalf("buckets %v: want the bottom bin first, with upper bound 0", buckets)
	}
	var cum uint64
	prev := math.Inf(-1)
	for _, b := range buckets {
		if b.Upper <= prev {
			t.Errorf("bucket upper bounds not ascending: %g after %g", b.Upper, prev)
		}
		prev = b.Upper
		cum += b.Count
	}
	if cum != s.Count {
		t.Errorf("cumulative bucket count %d != Count %d", cum, s.Count)
	}
}
