package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

// observeAll records a value list into a fresh histogram.
func observeAll(vals []int64) *Histogram {
	h := newHistogram("prop")
	for _, v := range vals {
		h.Observe(v)
	}
	return h
}

func TestBinEdgeZero(t *testing.T) {
	withEnabled(t, true)
	h := newHistogram("edge")
	h.Observe(0)
	s := h.Snapshot()
	if s.Bins[zeroBin] != 1 {
		t.Errorf("Observe(0): zero bin = %d, want 1", s.Bins[zeroBin])
	}
	if s.Count != 1 || s.Sum != 0 {
		t.Errorf("Observe(0): count=%d sum=%d", s.Count, s.Sum)
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Errorf("quantile over zero bin = %g, want 0", q)
	}
}

func TestBinEdgeNegative(t *testing.T) {
	withEnabled(t, true)
	h := newHistogram("edge")
	h.Observe(-123)
	h.Observe(math.MinInt64)
	s := h.Snapshot()
	if s.Bins[zeroBin] != 2 {
		t.Errorf("negative observations: zero bin = %d, want 2", s.Bins[zeroBin])
	}
	if s.Count != 2 {
		t.Errorf("count = %d, want 2", s.Count)
	}
}

func TestBinEdgeInf(t *testing.T) {
	withEnabled(t, true)
	h := newHistogram("edge")
	h.observe(math.MaxInt64, overflowBin)
	h.observe(math.MaxInt64, overflowBin)
	s := h.Snapshot()
	if s.Bins[overflowBin] != 2 {
		t.Errorf("+Inf/overflow: overflow bin = %d, want 2", s.Bins[overflowBin])
	}
	if !math.IsInf(s.Max(), 1) {
		t.Errorf("Max = %g, want +Inf", s.Max())
	}
	if !math.IsInf(s.Quantile(0.99), 1) {
		t.Errorf("p99 = %g, want +Inf", s.Quantile(0.99))
	}
}

func TestBinEdgePowersOfTwo(t *testing.T) {
	// 2^k is the first bin of octave k; 2^k - 1 the last of octave k-1.
	for k := 1; k <= 62; k++ {
		v := int64(1) << k
		i, j := binIndex(v), binIndex(v-1)
		if i != 1+k*subBuckets {
			t.Errorf("binIndex(2^%d) = %d, want %d", k, i, 1+k*subBuckets)
		}
		if j >= i {
			t.Errorf("binIndex(2^%d - 1) = %d, not below octave start %d", k, j, i)
		}
	}
	if binIndex(1) != 1 {
		t.Errorf("binIndex(1) = %d, want 1", binIndex(1))
	}
	if binIndex(math.MaxInt64) != overflowBin-1 {
		t.Errorf("binIndex(MaxInt64) = %d, want %d (last regular bin)",
			binIndex(math.MaxInt64), overflowBin-1)
	}
}

func TestRelativeErrorBound(t *testing.T) {
	// every positive value's bin midpoint is within 1/subBuckets of the
	// value (the log-linear guarantee)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10000; trial++ {
		v := rng.Int63()
		if v == 0 {
			continue
		}
		i := binIndex(v)
		mid := (binLower(i) + binUpper(i)) / 2
		if relErr := math.Abs(mid-float64(v)) / float64(v); relErr > 1.0/subBuckets {
			t.Fatalf("value %d: bin midpoint %g has relative error %g > %g",
				v, mid, relErr, 1.0/subBuckets)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	h := newHistogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*977 + 13)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	h := newHistogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*977 + 13)
	}
}
