package engine

import (
	"testing"
	"time"

	"seep/internal/control"
	"seep/internal/plan"
)

// TestEngineMergeInstancesExactCounts: split the counter in two, stream
// through both halves, merge them back mid-stream, stream again — every
// tuple must be reflected exactly once in the merged state and the
// parallelism must return to one.
func TestEngineMergeInstancesExactCounts(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 50 * time.Millisecond})
	e.Start()
	defer e.Stop()

	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(25)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("engine did not quiesce before scale out")
	}
	victim := e.Manager().Instances("count")[0]
	if err := e.ScaleOut(victim, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(25)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("engine did not quiesce before merge")
	}

	siblings := e.Manager().Instances("count")
	if len(siblings) != 2 {
		t.Fatalf("Instances(count) = %v, want 2", siblings)
	}
	if err := e.MergeInstances(siblings); err != nil {
		t.Fatal(err)
	}
	if got := e.Manager().Parallelism("count"); got != 1 {
		t.Fatalf("Parallelism(count) after merge = %d, want 1", got)
	}
	if got := e.Manager().Merges(); got != 1 {
		t.Errorf("Merges() = %d, want 1", got)
	}

	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(25)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("engine did not quiesce after merge")
	}
	got := counts(e)
	for w, c := range got {
		if c != 120 { // 3000 tuples / 25 words
			t.Errorf("count[%s] = %d, want 120 (exactly once across split+merge)", w, c)
		}
	}
	if len(got) != 25 {
		t.Errorf("distinct words = %d, want 25", len(got))
	}
	recs := e.Manager().Records()
	var merges int
	for _, r := range recs {
		if r.Merge {
			merges++
			if r.Pi != 1 || r.Failure {
				t.Errorf("merge record = %+v", r)
			}
		}
	}
	if merges != 1 {
		t.Errorf("merge records = %d, want 1", merges)
	}
}

// TestEngineMergeUnderTraffic merges the two counter partitions while
// the source is still injecting, so tuples are in flight through every
// stage of the transition. The retained-buffer replay and the
// per-victim duplicate-detection identities must still deliver exact
// per-key counts.
func TestEngineMergeUnderTraffic(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 20 * time.Millisecond})
	e.Start()
	defer e.Stop()

	if err := e.InjectBatch(inst("src", 1), 500, wordGen(25)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("engine did not quiesce before scale out")
	}
	if err := e.ScaleOut(e.Manager().Instances("count")[0], 2); err != nil {
		t.Fatal(err)
	}

	// Inject concurrently with the merge.
	done := make(chan error, 1)
	go func() {
		done <- e.InjectBatch(inst("src", 1), 2000, wordGen(25))
	}()
	time.Sleep(10 * time.Millisecond) // let the stream get going
	siblings := e.Manager().Instances("count")
	if len(siblings) != 2 {
		t.Fatalf("Instances(count) = %v", siblings)
	}
	if err := e.MergeInstances(siblings); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 10*time.Second) {
		t.Fatal("engine did not quiesce after merge")
	}
	got := counts(e)
	for w, c := range got {
		if c != 100 { // 2500 tuples / 25 words
			t.Errorf("count[%s] = %d, want 100 (exactly once across a merge under traffic)", w, c)
		}
	}
	if len(got) != 25 {
		t.Errorf("distinct words = %d, want 25", len(got))
	}
}

// TestEngineMergeThenFailRecoversExactState: kill the merge product
// right after the merge and let recovery rebuild it — the post-merge
// checkpoint (or the plan-time merged artifact) must restore exact
// state, including the victims' legacy buffers.
func TestEngineMergeThenFailRecoversExactState(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 50 * time.Millisecond})
	e.Start()
	defer e.Stop()

	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(20)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce before scale out")
	}
	if err := e.ScaleOut(e.Manager().Instances("count")[0], 2); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(20)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce before merge")
	}
	if err := e.MergeInstances(e.Manager().Instances("count")); err != nil {
		t.Fatal(err)
	}
	merged := e.Manager().Instances("count")[0]
	if err := e.Fail(merged); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(merged, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(20)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 10*time.Second) {
		t.Fatal("no quiesce after recovery")
	}
	got := counts(e)
	for w, c := range got {
		if c != 150 { // 3000 tuples / 20 words
			t.Errorf("count[%s] = %d, want 150 (exactly once across merge + failure)", w, c)
		}
	}
}

// TestEngineMergeGuards: bad victim sets are rejected without touching
// the topology.
func TestEngineMergeGuards(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 50 * time.Millisecond})
	e.Start()
	defer e.Stop()

	if err := e.MergeInstances([]plan.InstanceID{inst("count", 1)}); err == nil {
		t.Error("single-victim merge accepted")
	}
	if err := e.MergeInstances([]plan.InstanceID{inst("count", 1), inst("split", 1)}); err == nil {
		t.Error("cross-operator merge accepted")
	}
	if err := e.MergeInstances([]plan.InstanceID{inst("count", 1), inst("count", 9)}); err == nil {
		t.Error("merge with a dead sibling accepted")
	}
	if err := e.MergeInstances([]plan.InstanceID{inst("src", 1), inst("src", 2)}); err == nil {
		t.Error("source merge accepted")
	}
	if got := e.Manager().Parallelism("count"); got != 1 {
		t.Errorf("Parallelism(count) = %d after rejected merges, want 1", got)
	}
}

// TestEnginePolicyDrivenScaleIn: with a shrinker enabled, partitions
// that idle below the low watermark for the configured rounds merge
// automatically, and the merged operator does not immediately re-split
// (the hysteresis band).
func TestEnginePolicyDrivenScaleIn(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 30 * time.Millisecond})
	e.EnablePolicy(control.Policy{Threshold: 0.7, ConsecutiveReports: 1000, ReportEveryMillis: 20},
		&control.ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 2})
	e.Start()
	defer e.Stop()

	if err := e.InjectBatch(inst("src", 1), 500, wordGen(10)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce")
	}
	if err := e.ScaleOut(e.Manager().Instances("count")[0], 2); err != nil {
		t.Fatal(err)
	}
	// Idle stream: the shrinker must merge the two partitions back.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.Manager().Parallelism("count") == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := e.Manager().Parallelism("count"); got != 1 {
		t.Fatalf("Parallelism(count) = %d, want policy-driven merge to 1", got)
	}
	if err := e.InjectBatch(inst("src", 1), 500, wordGen(10)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce after merge")
	}
	got := counts(e)
	for w, c := range got {
		if c != 100 {
			t.Errorf("count[%s] = %d, want 100", w, c)
		}
	}
}
