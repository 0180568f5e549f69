package metrics

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); got < 50 || got > 51 {
		t.Errorf("Mean = %v", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	p50 := h.Percentile(0.5)
	if p50 < 45 || p50 > 55 {
		t.Errorf("P50 = %d", p50)
	}
	p99 := h.Percentile(0.99)
	if p99 < 95 || p99 > 100 {
		t.Errorf("P99 = %d", p99)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Error("negative samples should clamp to 0")
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Against an exact reference on a heavy-tailed distribution.
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 500)
		h.Observe(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Percentile(q)
		// HDR with 5 sub-bucket bits: ≤ ~3.2% relative error, plus
		// slack for rank rounding on small exact values.
		tol := float64(exact)*0.05 + 2
		if d := float64(got - exact); d > tol || d < -tol {
			t.Errorf("q=%v: got %d, exact %d", q, got, exact)
		}
	}
}

func TestHistogramQuantileClamping(t *testing.T) {
	var h Histogram
	h.Observe(10)
	if h.Percentile(-1) != 10 || h.Percentile(2) != 10 {
		t.Error("out-of-range quantiles should clamp")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				h.Observe(int64(rng.Intn(1000)))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}

// TestObserveNMatchesObserve: recording a run of equal samples with one
// ObserveN leaves the histogram exactly as recording them one by one —
// the sink's per-batch path against its per-tuple one — so every
// percentile, the mean, the extremes and each bucket agree.
func TestObserveNMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var each, runs Histogram
	for range 2000 {
		v := rng.Int63n(1 << uint(rng.Intn(20)))
		if rng.Intn(10) == 0 {
			v = -v
		}
		n := uint64(rng.Intn(300))
		for range n {
			each.Observe(v)
		}
		runs.ObserveN(v, n)
	}
	if !slices.Equal(each.counts, runs.counts) {
		t.Fatal("the buckets differ")
	}
	if each.Summarize() != runs.Summarize() {
		t.Fatalf("one by one %+v, by runs %+v", each.Summarize(), runs.Summarize())
	}
	for q := 0.0; q <= 1; q += 0.001 {
		if a, b := each.Percentile(q), runs.Percentile(q); a != b {
			t.Fatalf("percentile %.3f: %d one by one, %d by runs", q, a, b)
		}
	}
}

func TestBucketRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		v := int64(raw)
		i := bucketIndex(v)
		lo := bucketLow(i)
		if lo > v {
			return false
		}
		// The bucket width is at most v/32 + 1, so lo is within ~3.2%.
		return float64(v-lo) <= float64(v)/float64(subBucketCount)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	s := h.Summarize()
	if s.Count != 1000 || s.P50 == 0 || s.P95 <= s.P50 || s.P99 < s.P95 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	if ts.Len() != 0 || ts.Last() != (Point{}) || ts.MaxV() != 0 {
		t.Error("empty series should report zeros")
	}
	for i := int64(0); i < 10; i++ {
		ts.Add(i*100, float64(i))
	}
	if ts.Len() != 10 {
		t.Errorf("Len = %d", ts.Len())
	}
	if last := ts.Last(); last.T != 900 || last.V != 9 {
		t.Errorf("Last = %+v", last)
	}
	if ts.MaxV() != 9 {
		t.Errorf("MaxV = %v", ts.MaxV())
	}
	pts := ts.Points()
	pts[0].V = 999
	if ts.Points()[0].V == 999 {
		t.Error("Points returned aliased slice")
	}
}

func TestTimeSeriesDownsample(t *testing.T) {
	var ts TimeSeries
	for i := int64(0); i < 1000; i++ {
		ts.Add(i, 2.0)
	}
	got := ts.Downsample(10)
	if len(got) != 10 {
		t.Fatalf("downsampled to %d points", len(got))
	}
	for _, p := range got {
		if p.V != 2.0 {
			t.Errorf("averaged value = %v", p.V)
		}
	}
	// n larger than series: unchanged.
	if got := ts.Downsample(5000); len(got) != 1000 {
		t.Errorf("oversized downsample = %d points", len(got))
	}
	// Single-time series degenerates to one point.
	var flat TimeSeries
	flat.Add(5, 1)
	flat.Add(5, 3)
	if got := flat.Downsample(1); len(got) != 1 {
		t.Errorf("flat downsample = %v", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Errorf("Value = %d", c.Value())
	}
	c.Add(5)
	if c.Value() != 4005 {
		t.Errorf("Value = %d", c.Value())
	}
}
