package lrb

import (
	"maps"
	"testing"
	"time"

	"seep"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/sim"
	"seep/internal/stream"
)

// query is the LRB query graph Topology declares.
func query(t *testing.T) *plan.Query {
	t.Helper()
	topo, err := Topology()
	if err != nil {
		t.Fatal(err)
	}
	return topo.Query()
}

func runLRB(t *testing.T, fail bool) (*sim.Cluster, int64) {
	t.Helper()
	factories := make(map[plan.OpID]operator.Factory)
	for id, f := range Factories() {
		factories[id] = f
	}
	c, err := sim.NewCluster(sim.Config{
		Seed: 5, Mode: sim.FTRSM,
		CheckpointIntervalMillis: 5_000,
	}, query(t), factories)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(2, 5)
	if err := c.AddSource(plan.InstanceID{Op: "feeder", Part: 1}, sim.ConstantRate(1_000),
		func(uint64) (stream.Key, any) { return gen.Next() }); err != nil {
		t.Fatal(err)
	}
	if fail {
		c.Sim().At(30_000, func() {
			if live := c.LiveInstances("tollcalc"); len(live) > 0 {
				_ = c.FailInstance(live[0])
			}
		})
	}
	c.RunUntil(60_000)

	var cars int64
	for _, inst := range c.LiveInstances("tollcalc") {
		tc := c.OperatorOf(inst).(*TollCalculator)
		cars += tc.CarsTotal()
	}
	return c, cars
}

// TestLRBEndToEnd runs the full seven-operator Linear Road query
// tuple-by-tuple on the simulated cluster and checks the pipeline is
// functioning: toll notifications reach the sink within the 5 s bound,
// balances accumulate, accidents occur and clear.
func TestLRBEndToEnd(t *testing.T) {
	c, cars := runLRB(t, false)
	if c.SinkCount.Value() == 0 {
		t.Fatal("nothing reached the sink")
	}
	// ~99% of 60k tuples are position reports.
	if cars < 55_000 {
		t.Errorf("toll calculator reflected %d cars, want ≈59k", cars)
	}
	// Latency honours the LRB 5 s bound with big margin at half load.
	if p99 := c.Latency.Percentile(0.99); p99 > 5_000 {
		t.Errorf("P99 latency %d ms exceeds the LRB bound", p99)
	}
	// Assessment accounts exist.
	var vehicles int
	for _, inst := range c.LiveInstances("assessment") {
		vehicles += c.OperatorOf(inst).(*TollAssessment).Vehicles()
	}
	if vehicles == 0 {
		t.Error("no vehicle accounts accumulated")
	}
	// Balance queries were answered.
	var answered int
	for _, inst := range c.LiveInstances("balance") {
		answered += c.OperatorOf(inst).(*BalanceAccount).Answered()
	}
	if answered == 0 {
		t.Error("no balance queries answered")
	}
}

// TestLRBSurvivesTollCalculatorFailure fails the stateful toll calculator
// mid-run: the per-segment statistics must be restored, not rebuilt from
// empty — LRB state depends on history, which is exactly why the paper's
// upstream-backup baselines cannot run it (§6.2).
func TestLRBSurvivesTollCalculatorFailure(t *testing.T) {
	_, noFailCars := runLRB(t, false)
	c, cars := runLRB(t, true)
	recs := c.Manager().Records()
	if len(recs) != 1 || !recs[0].Failure {
		t.Fatalf("recoveries = %+v", recs)
	}
	// Restored state carries the full history: the car totals match the
	// failure-free run exactly (deterministic generator + exactly-once
	// state).
	if cars != noFailCars {
		t.Errorf("cars after recovery = %d, failure-free = %d", cars, noFailCars)
	}
	if c.DuplicatesDropped() == 0 {
		t.Error("recovery replay should discard checkpointed duplicates")
	}
}

// runLRBLive streams three bursts of position reports through the Live
// runtime with incremental checkpoints armed, optionally crash-stopping
// the toll calculator before the last burst, and returns every
// vehicle's assessed balance and the job's final metrics.
func runLRBLive(t *testing.T, fail bool) (map[int32]int64, seep.Metrics) {
	t.Helper()
	topo, err := Topology()
	if err != nil {
		t.Fatal(err)
	}
	job, err := seep.Live(
		seep.WithCheckpointInterval(20*time.Millisecond),
		seep.WithIncrementalCheckpoints(),
		seep.WithDetectDelay(50*time.Millisecond),
	).Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	defer job.Stop()
	// Congested traffic (mean speed below the 40 mph toll threshold) so
	// every vehicle accrues tolls; the benchmark generator's free-flowing
	// roads almost never do.
	var seq int32
	next := func(uint64) (seep.Key, any) {
		seq++
		vid, seg := seq%500, seq%40
		if seq%50 == 0 {
			return VehicleKey(vid), Report{Type: TypeBalance, VID: vid, QID: seq}
		}
		return SegmentKey(0, 0, seg), Report{Type: TypePosition, VID: vid, Seg: seg, Speed: 10 + seq*7%50}
	}
	for burst := 0; burst < 3; burst++ {
		if fail && burst == 2 {
			if err := job.Fail(job.Instances("tollcalc")[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := job.InjectBatch("feeder", 4_000, next); err != nil {
			t.Fatal(err)
		}
		job.Run(2 * time.Second)
	}
	balances := make(map[int32]int64)
	for _, inst := range job.Instances("assessment") {
		ta := job.OperatorOf(inst).(*TollAssessment)
		for _, vid := range SortedVIDs(ta) {
			balances[vid] = ta.Balance(vid)
		}
	}
	return balances, job.MetricsSnapshot()
}

// TestLRBLiveDeltaCheckpointsSurviveFailure: on managed cells the LRB
// operators checkpoint incrementally, and a toll calculator killed
// mid-stream is restored through those deltas — every vehicle ends with
// exactly the balance of the failure-free run.
func TestLRBLiveDeltaCheckpointsSurviveFailure(t *testing.T) {
	want, _ := runLRBLive(t, false)
	got, m := runLRBLive(t, true)
	if len(m.Errors) > 0 {
		t.Fatalf("job errors: %v", m.Errors)
	}
	if len(m.Recoveries) != 1 || !m.Recoveries[0].Failure {
		t.Fatalf("recoveries = %+v", m.Recoveries)
	}
	if m.Checkpoints.Deltas == 0 {
		t.Errorf("no incremental checkpoints shipped: %+v", m.Checkpoints)
	}
	var tolled int64
	for _, b := range want {
		tolled += b
	}
	if tolled == 0 {
		t.Fatal("the failure-free run assessed no tolls; the comparison would be vacuous")
	}
	if !maps.Equal(got, want) {
		t.Errorf("balances after recovery differ from the failure-free run (%d vs %d vehicles)", len(got), len(want))
	}
}
