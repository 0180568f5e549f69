package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"seep"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9_999, 0.99}, {10_000, 0.999}, {1_000_000, 0.99999}, {1_800_000, 0.99999},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHistogramBucketErrorBelowOnePercent(t *testing.T) {
	for v := int64(1); v < int64(100*time.Second); v += 1 + v/97 {
		got := histValue(histIndex(v))
		if err := math.Abs(float64(got-v)) / float64(v); err >= 0.01 {
			t.Fatalf("value %d lands in a bucket reported as %d: error %.4f", v, got, err)
		}
	}
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 1000)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 501_000}, {0.99, 991_000}, {1, 1_000_000}} {
		got := h.quantile(c.q)
		if err := math.Abs(float64(got-c.want)) / float64(c.want); err >= 0.01 {
			t.Errorf("quantile(%v) = %d, want %d within 1%%", c.q, got, c.want)
		}
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.max != h.max || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge of a histogram with itself changed its shape")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestKeygenIsASeededPermutation(t *testing.T) {
	const k = 1000
	g := newKeygen(7, k)
	first := map[seep.Key]bool{}
	for i := 0; i < k; i++ {
		first[g.next()] = true
	}
	if len(first) != k {
		t.Fatalf("%d distinct keys in a window of %d", len(first), k)
	}
	for i := 0; i < k; i++ {
		if !first[g.next()] {
			t.Fatal("second window left the key set")
		}
	}
	hot := newKeygen(7, 50)
	for i := 0; i < 50; i++ {
		if !first[hot.next()] {
			t.Fatal("a smaller key set under the same seed is not a subset")
		}
	}
	if a, b := newKeygen(7, k).next(), newKeygen(8, k).next(); a == b {
		t.Error("different seeds gave the same first key")
	}
	if a, b := newKeygen(7, k).next(), newKeygen(7, k).next(); a != b {
		t.Error("the same seed gave different keys")
	}
}

func TestOracleCountsWhatTheRunGenerated(t *testing.T) {
	// What a run does: a set-up stream over 10 keys, a timed stream over
	// the 4 hot ones, each its own generator.
	got := map[seep.Key]int64{}
	setup, timed := newKeygen(3, 10), newKeygen(3, 4)
	for i := 0; i < 20; i++ {
		got[setup.next()]++
	}
	for i := 0; i < 6; i++ {
		got[timed.next()]++
	}
	want := oracle(3, []segment{{0, 10, 20}, {1, 4, 2}, {1, 4, 4}})
	if d := stateDiff(got, want); d != 0 {
		t.Fatalf("reference differs from the generated stream by %d", d)
	}
	var some seep.Key
	for k := range got {
		some = k
		break
	}
	got[some] -= 2
	got[seep.Key(12345)] = 3
	if d := stateDiff(got, want); d != 5 {
		t.Errorf("stateDiff = %d, want 5 (2 missing on one key, 3 on a key the reference lacks)", d)
	}
}

// blockingJob is a Job whose InjectBatch hands every tuple straight to
// the sink but blocks, on chosen calls, before doing so.
type blockingJob struct {
	seep.Job
	calls   int
	blockOn int
	block   time.Duration
	sink    func(seep.Tuple)
}

func (j *blockingJob) InjectBatch(_ seep.OpID, count int, gen seep.Generator) error {
	if j.calls == j.blockOn {
		time.Sleep(j.block)
	}
	j.calls++
	for i := 0; i < count; i++ {
		k, p := gen(uint64(i))
		j.sink(seep.Tuple{Key: k, Payload: p})
	}
	return nil
}

func TestLatencyCountsFromDueTimeWhenTheGeneratorIsBlocked(t *testing.T) {
	s := &spec{name: "t", keys: 8, rate: 1000, tick: 10 * time.Millisecond, grace: time.Second}
	d := &deployed{sink: newSink()}
	const block = 120 * time.Millisecond
	d.job = &blockingJob{blockOn: 5, block: block, sink: d.sink.onTuple}
	o, err := openLoop(s, d, newKeygen(1, s.keys), 300*time.Millisecond, nil, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if o.sent != 300 || o.arrived != 300 {
		t.Fatalf("sent %d, arrived %d, want 300 each", o.sent, o.arrived)
	}
	out := &outcome{EndToEnd: map[string]metric{}, Detail: map[string]metric{}, Layers: map[string]metric{}}
	o.report(out, s, d)
	// The system itself adds no delay: every millisecond of latency is
	// the wait the blocked call imposed, on its own tick and on the ticks
	// that fell due behind it.
	if max := out.Detail["lat_max_ms"].Value; max < 115 || max > 200 {
		t.Errorf("lat_max_ms = %.1f, want about %v", max, block)
	}
	// Ticks 5..16 are due within the block; 11 of them miss the 10 ms limit
	// by a clear margin.
	if share := out.EndToEnd["over_limit_share"].Value; share < 0.30 || share > 0.45 {
		t.Errorf("over_limit_share = %.3f, want about 11/30", share)
	}
	if late := out.Layers["bench.gen_late_max_ms"].Value; late < 100 || late > 200 {
		t.Errorf("bench.gen_late_max_ms = %.1f, want about 110", late)
	}
	if blocked := out.Layers["bench.inject_blocked_share"].Value; blocked < 0.3 {
		t.Errorf("bench.inject_blocked_share = %.2f, want at least 0.3", blocked)
	}
	if p50 := out.EndToEnd["lat_p50_ms"].Value; p50 > 5 {
		t.Errorf("lat_p50_ms = %.2f: ticks due after the block should be on time", p50)
	}
}

func TestEpisodeOutageIsTheLongestWaitOfATupleDueInIt(t *testing.T) {
	s := newSink()
	start := time.Now().Add(-10 * time.Second)
	s.beginOpen(start, 10*time.Second, 2*time.Second, 6*time.Second)
	deliver := func(due, lat time.Duration) {
		s.mu.Lock()
		s.start = time.Now().Add(-(due + lat))
		s.mu.Unlock()
		s.onTuple(seep.Tuple{Payload: int64(due)})
	}
	deliver(1*time.Second, 900*time.Millisecond) // before any episode
	deliver(2*time.Second, 700*time.Millisecond)
	deliver(3*time.Second, 50*time.Millisecond)
	deliver(6500*time.Millisecond, 250*time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	// One tuple per one-second step: the first episode got 2 of its 4, so
	// it never ended; the second got the one step due in [6 s, 7 s).
	const tick, deadline = time.Second, int64(15 * time.Second)
	if got, want := s.episodes[0].outage(int64(6*time.Second), tick, 1, deadline), deadline-int64(2*time.Second); got != want {
		t.Errorf("an episode with tuples missing: outage = %v, want the time to the deadline %v", time.Duration(got), time.Duration(want))
	}
	s.episodes[0].arrived = 4
	for i, c := range []struct{ to, want time.Duration }{{6 * time.Second, 700 * time.Millisecond}, {7 * time.Second, 250 * time.Millisecond}} {
		got := time.Duration(s.episodes[i].outage(int64(c.to), tick, 1, deadline))
		if got < c.want || got > c.want+20*time.Millisecond {
			t.Errorf("episode %d outage = %v, want %v", i, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := e2eDef{name: "lat", bound: 0.10}
	higher := e2eDef{name: "rate", higher: true, bound: 0.10}
	setup := e2eDef{name: "setup_s", bound: 0.25, floor: 0.25}
	steady := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base * (1 + 0.002*float64(i%5))
		}
		return xs
	}
	noisy := []float64{100, 140, 80, 130, 70, 150, 60, 120, 90, 110}
	for _, c := range []struct {
		name string
		d    e2eDef
		a, b []float64
		want string
	}{
		{"identical", lower, steady(100), steady(100), "same"},
		{"small loss inside the bound", lower, steady(100), steady(105), "same"},
		{"loss beyond the bound", lower, steady(100), steady(115), "worse"},
		{"throughput drop beyond the bound", higher, steady(100), steady(85), "worse"},
		{"throughput gain, ten clean pairs", higher, steady(100), steady(120), "better"},
		{"latency gain, ten clean pairs", lower, steady(100), steady(80), "better"},
		{"gain but only five pairs", lower, steady(100)[:5], steady(80)[:5], "same"},
		{"gain smaller than the parent's own spread", lower, []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}, steady(101), "same"},
		{"spread wider than the bound", lower, noisy, steady(100), "unresolved"},
		{"set-up change under the absolute floor", setup, steady(0.2), steady(0.4), "same"},
		{"set-up change over the floor", setup, steady(2), steady(3), "worse"},
		{"set-up spread is not held against it", setup, []float64{0.1, 0.2, 0.1, 0.3, 0.1, 0.2, 0.1, 0.3, 0.1, 0.2}, steady(0.15), "same"},
		{"nothing to compare", lower, nil, steady(1), "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsFailuresAndLeavesFailedRunsOutOfMedians(t *testing.T) {
	if got := failedVerdict([]float64{0, 0}, []float64{0, 0.0005}); got != "same" {
		t.Errorf("failures inside the slack: verdict = %s, want same", got)
	}
	if got := failedVerdict([]float64{0, 0}, []float64{0, 0.01}); got != "worse" {
		t.Errorf("more failures than the parent: verdict = %s, want worse", got)
	}
	if got := failedVerdict([]float64{0.01}, []float64{0}); got != "same" {
		t.Errorf("fewer failures than the parent: verdict = %s, want same", got)
	}
	file := filepath.Join(t.TempDir(), "sets.json")
	run := func(failed int64, done bool, lat float64) *outcome {
		return &outcome{Workload: "steady-live", Done: done, Attempted: 100, Failed: failed,
			EndToEnd: map[string]metric{"lat_p50_ms": {lat, "ms"}}}
	}
	sets := []runSet{{Outcomes: []*outcome{run(0, true, 1), run(5, true, 50), run(100, false, 70)}}}
	if err := writeJSON(file, sets); err != nil {
		t.Fatal(err)
	}
	got, err := loadSets(file)
	if err != nil {
		t.Fatal(err)
	}
	r := got["steady-live"]
	if !reflect.DeepEqual(r.values["lat_p50_ms"], []float64{1}) {
		t.Errorf("values = %v, want the one clean run's", r.values["lat_p50_ms"])
	}
	if !reflect.DeepEqual(r.failed, []float64{0, 0.05, 1}) {
		t.Errorf("failed = %v, want every run's share", r.failed)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps the driver's description of
// the benchmark and the tables the program reports from in step:
// the file must be what the tables give.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: refSeconds}
	for _, s := range specs {
		if len(s.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", s.name, len(s.why))
		}
		doc.Workloads = append(doc.Workloads, workload{s.name, s.why})
	}
	for _, d := range endToEnd {
		if d.bound > 0.25 {
			t.Errorf("%s: bound %v is above 0.25", d.name, d.bound)
		}
		if d.layer != "" { // the driver gets it per layer, without a bound
			continue
		}
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, better(d.higher), d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, better(d.higher)})
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	got, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the program's tables\n--- want\n%s", want)
	}
}
