package sim

import (
	"fmt"
	"testing"

	"seep/internal/control"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/stream"
)

// wordQuery builds the §6.2 windowed word frequency query: a source of
// sentence fragments, a stateless splitter, a stateful counter and a
// sink. Costs are calibrated so one VM handles ~2000 words/s.
func wordQuery() *plan.Query {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "split", Role: plan.RoleStateless, CostPerTuple: 0.0001})
	q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful, CostPerTuple: 0.0005})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "split")
	q.Connect("split", "count")
	q.Connect("count", "sink")
	return q
}

func wordFactories() map[plan.OpID]operator.Factory {
	return map[plan.OpID]operator.Factory{
		"split": func() operator.Operator { return operator.WordSplitter() },
		"count": func() operator.Operator { return operator.NewWordCounter(0) },
	}
}

// vocabGen emits one word per tuple from a fixed vocabulary, cycling.
func vocabGen(vocabSize int) Generator {
	return func(i uint64) (stream.Key, any) {
		w := fmt.Sprintf("word%03d", i%uint64(vocabSize))
		return stream.KeyOfString(w), w
	}
}

// totalCounts sums the word counters across all live count partitions.
func totalCounts(c *Cluster) map[string]int64 {
	out := make(map[string]int64)
	for _, inst := range c.Manager().Instances("count") {
		n := c.Node(inst)
		if n == nil {
			continue
		}
		wc := n.op.(*operator.WordCounter)
		for word, c := range wc.Counts() {
			out[word] += c
		}
	}
	return out
}

func mustCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, wordQuery(), wordFactories())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, ConstantRate(500), vocabGen(50)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterBaselineRun(t *testing.T) {
	c := mustCluster(t, Config{Seed: 1, Mode: FTRSM})
	c.RunUntil(20_000)
	counts := totalCounts(c)
	if len(counts) != 50 {
		t.Fatalf("distinct words = %d, want 50", len(counts))
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	// 500 tuples/s × 20 s, minus tuples in flight at the end.
	if total < int64(float64(500*20)*0.98) || total > 500*20 {
		t.Errorf("total processed = %d, want ≈10000", total)
	}
	if c.SinkCount.Value() == 0 {
		t.Error("sink received nothing")
	}
	if c.Latency.Count() == 0 {
		t.Error("no latency samples")
	}
	// Under light load latency should be a few ms (net + service).
	if p50 := c.Latency.Percentile(0.5); p50 > 50 {
		t.Errorf("P50 latency = %d ms under light load", p50)
	}
}

// TestClusterRecoveryExactlyOnceState is the central correctness claim:
// failing the stateful operator and recovering it via R+SM yields exactly
// the same operator state as a run without any failure.
func TestClusterRecoveryExactlyOnceState(t *testing.T) {
	run := func(fail bool) map[string]int64 {
		c := mustCluster(t, Config{Seed: 7, Mode: FTRSM, CheckpointIntervalMillis: 5_000})
		if fail {
			c.Sim().At(22_000, func() {
				if err := c.FailInstance(plan.InstanceID{Op: "count", Part: 1}); err != nil {
					t.Error(err)
				}
			})
		}
		c.RunUntil(60_000)
		return totalCounts(c)
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d after recovery, want %d", w, got[w], n)
		}
	}
}

func TestClusterRecoveryRecorded(t *testing.T) {
	c := mustCluster(t, Config{Seed: 3, Mode: FTRSM, CheckpointIntervalMillis: 5_000})
	c.Sim().At(20_000, func() {
		_ = c.FailInstance(plan.InstanceID{Op: "count", Part: 1})
	})
	c.RunUntil(60_000)
	recs := c.Manager().Records()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %d", len(recs))
	}
	r := recs[0]
	if !r.Failure || r.Pi != 1 || r.Victim.Op != "count" {
		t.Errorf("record = %+v", r)
	}
	if r.Duration() <= 0 || r.Duration() > 30_000 {
		t.Errorf("recovery duration = %d ms", r.Duration())
	}
	if r.ReplayedTuples == 0 {
		t.Error("no tuples replayed")
	}
	// Duplicates must have been dropped during replay (tuples reflected
	// in the checkpoint re-delivered from upstream buffers).
	if c.DuplicatesDropped() == 0 {
		t.Error("expected replay duplicates to be dropped")
	}
	// The new instance is live and owned by the same logical operator.
	insts := c.Manager().Instances("count")
	if len(insts) != 1 || insts[0].Part == 1 {
		t.Errorf("post-recovery instances = %v", insts)
	}
}

func TestClusterParallelRecovery(t *testing.T) {
	c := mustCluster(t, Config{
		Seed: 5, Mode: FTRSM,
		CheckpointIntervalMillis: 10_000,
		RecoveryParallelism:      2,
	})
	c.Sim().At(25_000, func() {
		_ = c.FailInstance(plan.InstanceID{Op: "count", Part: 1})
	})
	c.RunUntil(70_000)
	recs := c.Manager().Records()
	if len(recs) != 1 || recs[0].Pi != 2 {
		t.Fatalf("recoveries = %+v", recs)
	}
	if got := c.Manager().Parallelism("count"); got != 2 {
		t.Errorf("parallelism after parallel recovery = %d", got)
	}
	// All 50 words still tracked across the two partitions.
	counts := totalCounts(c)
	if len(counts) != 50 {
		t.Errorf("distinct words after parallel recovery = %d", len(counts))
	}
}

func TestClusterScaleOutPreservesState(t *testing.T) {
	run := func(scale bool) map[string]int64 {
		c := mustCluster(t, Config{Seed: 11, Mode: FTRSM, CheckpointIntervalMillis: 5_000})
		if scale {
			c.Sim().At(20_000, func() {
				if err := c.ScaleOut(plan.InstanceID{Op: "count", Part: 1}, 2); err != nil {
					t.Error(err)
				}
			})
		}
		c.RunUntil(60_000)
		return totalCounts(c)
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	// Operator state must be exactly preserved through the split: the
	// checkpoint plus held-replay reconstruction makes scale out
	// exactly-once with respect to state, same as recovery.
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d after scale out, want %d", w, got[w], n)
		}
	}
}

func TestClusterScaleOutSplitsKeys(t *testing.T) {
	c := mustCluster(t, Config{Seed: 13, Mode: FTRSM, CheckpointIntervalMillis: 5_000})
	c.Sim().At(15_000, func() {
		_ = c.ScaleOut(plan.InstanceID{Op: "count", Part: 1}, 2)
	})
	c.RunUntil(40_000)
	insts := c.Manager().Instances("count")
	if len(insts) != 2 {
		t.Fatalf("instances = %v", insts)
	}
	// Both partitions hold disjoint non-empty subsets of the words.
	routing := c.Manager().Routing("count")
	for _, inst := range insts {
		n := c.Node(inst)
		if n == nil {
			t.Fatalf("no node for %v", inst)
		}
		keys := n.op.(*operator.WordCounter).State().Keys()
		if len(keys) == 0 {
			t.Errorf("partition %v holds no state", inst)
		}
		r, ok := routing.RangeOf(inst)
		if !ok {
			t.Fatalf("no routing range for %v", inst)
		}
		for _, k := range keys {
			if !r.Contains(k) {
				t.Errorf("partition %v holds key %d outside its range %v", inst, k, r)
			}
		}
	}
}

func TestClusterUpstreamBackupRecovery(t *testing.T) {
	c := mustCluster(t, Config{Seed: 17, Mode: FTUpstreamBackup, WindowMillis: 120_000})
	c.Sim().At(20_000, func() {
		_ = c.FailInstance(plan.InstanceID{Op: "count", Part: 1})
	})
	c.RunUntil(60_000)
	recs := c.Manager().Records()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %+v", recs)
	}
	// The retained window covered the whole run, so re-processing must
	// rebuild the full state.
	counts := totalCounts(c)
	if len(counts) != 50 {
		t.Errorf("distinct words after UB recovery = %d", len(counts))
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total < 28_000 {
		t.Errorf("UB rebuilt %d counts, want ≈30000", total)
	}
}

func TestClusterSourceReplayRecovery(t *testing.T) {
	c := mustCluster(t, Config{Seed: 19, Mode: FTSourceReplay, WindowMillis: 120_000})
	c.Sim().At(20_000, func() {
		_ = c.FailInstance(plan.InstanceID{Op: "count", Part: 1})
	})
	c.RunUntil(90_000)
	recs := c.Manager().Records()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %+v", recs)
	}
	if recs[0].ReplayedTuples == 0 {
		t.Error("SR replayed nothing")
	}
	counts := totalCounts(c)
	if len(counts) != 50 {
		t.Errorf("distinct words after SR recovery = %d", len(counts))
	}
}

func TestClusterRSMFasterThanBaselines(t *testing.T) {
	recoveryTime := func(mode FTMode) Millis {
		c := mustCluster(t, Config{
			Seed: 23, Mode: mode,
			CheckpointIntervalMillis: 5_000,
			WindowMillis:             30_000,
		})
		c.Sim().At(40_000, func() {
			_ = c.FailInstance(plan.InstanceID{Op: "count", Part: 1})
		})
		c.RunUntil(120_000)
		recs := c.Manager().Records()
		if len(recs) != 1 {
			t.Fatalf("mode %v: recoveries = %+v", mode, recs)
		}
		return recs[0].Duration()
	}
	rsm := recoveryTime(FTRSM)
	ub := recoveryTime(FTUpstreamBackup)
	sr := recoveryTime(FTSourceReplay)
	// The paper's Fig. 11: R+SM < SR < UB (SR slightly faster than UB).
	if rsm >= ub || rsm >= sr {
		t.Errorf("R+SM (%d ms) should beat UB (%d ms) and SR (%d ms)", rsm, ub, sr)
	}
}

func TestClusterPolicyScalesOut(t *testing.T) {
	q := wordQuery()
	c, err := NewCluster(Config{Seed: 29, Mode: FTRSM, Pool: PoolConfig{Size: 4}}, q, wordFactories())
	if err != nil {
		t.Fatal(err)
	}
	// 3000 words/s against a counter that handles 2000/s: bottleneck.
	if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, ConstantRate(3000), vocabGen(200)); err != nil {
		t.Fatal(err)
	}
	c.EnablePolicy(control.Policy{Threshold: 0.70, ConsecutiveReports: 2, ReportEveryMillis: 5_000}, nil)
	c.RunUntil(120_000)
	if got := c.Manager().Parallelism("count"); got < 2 {
		t.Errorf("count parallelism = %d, want ≥ 2 after sustained overload", got)
	}
	recs := c.Manager().Records()
	if len(recs) == 0 {
		t.Fatal("no scale-out recorded")
	}
	for _, r := range recs {
		if r.Failure {
			t.Errorf("policy run recorded a failure recovery: %+v", r)
		}
	}
	// After scale out the system keeps up: throughput at the sink tracks
	// the input rate.
	if c.SinkCount.Value() == 0 {
		t.Error("sink starved")
	}
}

func TestClusterCheckpointOverheadVisible(t *testing.T) {
	p95 := func(interval Millis, mode FTMode, vocab int) int64 {
		q := wordQuery()
		c, err := NewCluster(Config{
			Seed: 31, Mode: mode,
			CheckpointIntervalMillis: interval,
			CheckpointCostPerMB:      40, // exaggerated for test visibility
		}, q, wordFactories())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, ConstantRate(800), vocabGen(vocab)); err != nil {
			t.Fatal(err)
		}
		c.RunUntil(60_000)
		return c.Latency.Percentile(0.95)
	}
	withCkpt := p95(5_000, FTRSM, 5000)
	without := p95(5_000, FTNone, 5000)
	if withCkpt <= without {
		t.Errorf("P95 with checkpointing (%d) should exceed baseline (%d)", withCkpt, without)
	}
}

func TestClusterGuards(t *testing.T) {
	c := mustCluster(t, Config{Seed: 37, Mode: FTRSM})
	if err := c.FailInstance(plan.InstanceID{Op: "src", Part: 1}); err == nil {
		t.Error("failing a source should be rejected")
	}
	if err := c.FailInstance(plan.InstanceID{Op: "count", Part: 9}); err == nil {
		t.Error("failing an unknown instance should be rejected")
	}
	if err := c.ScaleOut(plan.InstanceID{Op: "count", Part: 9}, 2); err == nil {
		t.Error("scaling an unknown instance should be rejected")
	}
	if err := c.AddSource(plan.InstanceID{Op: "count", Part: 1}, ConstantRate(1), vocabGen(1)); err == nil {
		t.Error("AddSource on non-source should be rejected")
	}
}

func TestClusterDeterministicRuns(t *testing.T) {
	run := func() (uint64, int64) {
		c := mustCluster(t, Config{Seed: 41, Mode: FTRSM})
		c.Sim().At(12_000, func() {
			_ = c.FailInstance(plan.InstanceID{Op: "count", Part: 1})
		})
		c.RunUntil(40_000)
		return c.SinkCount.Value(), c.Latency.Percentile(0.99)
	}
	n1, p1 := run()
	n2, p2 := run()
	if n1 != n2 || p1 != p2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", n1, p1, n2, p2)
	}
}
