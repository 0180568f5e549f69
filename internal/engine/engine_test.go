package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/stream"
	"seep/internal/wordcount"
)

func inst(op string, part int) plan.InstanceID {
	return plan.InstanceID{Op: plan.OpID(op), Part: part}
}

func wordEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	opts := wordcount.Options{WindowMillis: 0, SplitCost: 0, CountCost: 0}
	e, err := New(cfg, wordcount.Query(opts), wordcount.Factories(opts))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func wordGen(vocab int) func(i uint64) (stream.Key, any) {
	return func(i uint64) (stream.Key, any) {
		w := fmt.Sprintf("word%04d", i%uint64(vocab))
		return stream.KeyOfString(w), w
	}
}

// counts sums word counters across live count partitions.
func counts(e *Engine) map[string]int64 {
	out := make(map[string]int64)
	for _, in := range e.Manager().Instances("count") {
		op, _ := e.OperatorOf(in).(*operator.WordCounter)
		if op == nil {
			continue
		}
		for w, c := range op.Counts() {
			out[w] += c
		}
	}
	return out
}

func totalOf(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

func TestEngineProcessesBatch(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 50 * time.Millisecond})
	e.Start()
	defer e.Stop()
	if err := e.InjectBatch(inst("src", 1), 2000, wordGen(40)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("engine did not quiesce")
	}
	got := counts(e)
	if totalOf(got) != 2000 {
		t.Errorf("state total = %d, want 2000", totalOf(got))
	}
	if len(got) != 40 {
		t.Errorf("distinct words = %d", len(got))
	}
	if e.SinkCount.Value() == 0 {
		t.Error("sink saw nothing")
	}
	if e.Latency.Count() == 0 {
		t.Error("no latency samples")
	}
}

func TestEngineRecoveryExactState(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: time.Hour}) // manual checkpoints only
	e.Start()
	defer e.Stop()

	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(25)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce before checkpoint")
	}
	if err := e.Checkpoint(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	// More tuples after the checkpoint: they live only in upstream
	// buffers and the victim's volatile state.
	if err := e.InjectBatch(inst("src", 1), 500, wordGen(25)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce before failure")
	}

	if err := e.Fail(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(inst("count", 1), 1); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce after recovery")
	}

	got := counts(e)
	if totalOf(got) != 1500 {
		t.Errorf("state total after recovery = %d, want 1500", totalOf(got))
	}
	// Each word appeared 1500/25 = 60 times.
	for w, c := range got {
		if c != 60 {
			t.Errorf("count[%s] = %d, want 60", w, c)
		}
	}
}

// TestEngineRecoveryBeforeFirstCheckpoint: an operator that fails before
// its first backup restarts from empty state, and the untrimmed upstream
// buffers replay every tuple to rebuild it (the sim cluster's fallback).
func TestEngineRecoveryBeforeFirstCheckpoint(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: time.Hour})
	e.Start()
	defer e.Stop()
	if err := e.InjectBatch(inst("src", 1), 500, wordGen(25)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce")
	}
	if err := e.Fail(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(inst("count", 1), 1); err != nil {
		t.Fatalf("recovery before first checkpoint: %v", err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce after recovery")
	}
	got := counts(e)
	if totalOf(got) != 500 {
		t.Errorf("state total after empty-state recovery = %d, want 500", totalOf(got))
	}
}

// TestEngineRecoveryPlanningErrorPreservesBackup: a recovery that fails
// to plan for a reason other than a missing checkpoint (here: π exceeds
// the operator's max parallelism) must not overwrite the real backup
// with empty state; a subsequent valid recovery restores the true state.
func TestEngineRecoveryPlanningErrorPreservesBackup(t *testing.T) {
	opts := wordcount.Options{WindowMillis: 0}
	q := wordcount.Query(opts)
	q.Op("count").MaxParallelism = 1
	e, err := New(Config{CheckpointInterval: time.Hour}, q, wordcount.Factories(opts))
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	if err := e.InjectBatch(inst("src", 1), 400, wordGen(20)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce")
	}
	if err := e.Checkpoint(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Fail(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(inst("count", 1), 2); err == nil {
		t.Fatal("recovery beyond max parallelism accepted")
	}
	if err := e.Recover(inst("count", 1), 1); err != nil {
		t.Fatalf("serial recovery after failed parallel attempt: %v", err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce after recovery")
	}
	if got := totalOf(counts(e)); got != 400 {
		t.Errorf("state total = %d, want 400 (backup must survive the failed planning attempt)", got)
	}
}

func TestEngineParallelRecovery(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: time.Hour})
	e.Start()
	defer e.Stop()
	if err := e.InjectBatch(inst("src", 1), 1200, wordGen(30)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce")
	}
	if err := e.Checkpoint(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Fail(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(inst("count", 1), 2); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce after parallel recovery")
	}
	if got := e.Manager().Parallelism("count"); got != 2 {
		t.Fatalf("parallelism = %d", got)
	}
	got := counts(e)
	if totalOf(got) != 1200 {
		t.Errorf("state total = %d, want 1200", totalOf(got))
	}
	if len(got) != 30 {
		t.Errorf("distinct = %d", len(got))
	}
}

func TestEngineScaleOutKeepsCounting(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 50 * time.Millisecond})
	e.Start()
	defer e.Stop()
	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(30)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce")
	}
	if err := e.ScaleOut(inst("count", 1), 2); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(inst("src", 1), 1000, wordGen(30)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce after scale out")
	}
	got := counts(e)
	if totalOf(got) != 2000 {
		t.Errorf("state total after scale out = %d, want 2000", totalOf(got))
	}
	// State is split across the two partitions, each non-empty.
	for _, in := range e.Manager().Instances("count") {
		op := e.OperatorOf(in).(*operator.WordCounter)
		if op.Distinct() == 0 {
			t.Errorf("partition %v holds no words", in)
		}
	}
}

func TestEngineRatedSource(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 100 * time.Millisecond})
	if err := e.AddSource(inst("src", 1), 2000, wordGen(20)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	time.Sleep(500 * time.Millisecond)
	e.Stop()
	total := totalOf(counts(e))
	// ~2000/s for ~0.5 s: allow generous scheduling slop.
	if total < 500 || total > 2500 {
		t.Errorf("processed %d tuples from rated source", total)
	}
}

func TestEngineGuards(t *testing.T) {
	e := wordEngine(t, Config{})
	if err := e.AddSource(inst("count", 1), 10, wordGen(2)); err == nil {
		t.Error("AddSource on non-source accepted")
	}
	if err := e.Fail(inst("src", 1)); err == nil {
		t.Error("failing a source accepted")
	}
	if err := e.Fail(inst("count", 7)); err == nil {
		t.Error("failing unknown instance accepted")
	}
	if err := e.Checkpoint(inst("count", 7)); err == nil {
		t.Error("checkpoint of unknown instance accepted")
	}
	if _, err := New(Config{}, wordcount.Query(wordcount.Options{}), nil); err == nil {
		t.Error("missing factories accepted")
	}
}

func TestEngineConcurrentSafety(t *testing.T) {
	// Hammer the engine with concurrent batches, checkpoints and a
	// scale-out; run under -race in CI.
	e := wordEngine(t, Config{CheckpointInterval: 20 * time.Millisecond})
	e.Start()
	defer e.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_ = e.InjectBatch(inst("src", 1), 100, wordGen(50))
			}
		}()
	}
	wg.Wait()
	if err := e.ScaleOut(inst("count", 1), 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = e.InjectBatch(inst("src", 1), 100, wordGen(50))
	}
	if !e.Quiesce(150*time.Millisecond, 10*time.Second) {
		t.Fatal("no quiesce")
	}
	// 4500 injected, exactly 4500 counted: the scale-out victim stops
	// before its final checkpoint is captured (rule 1 in core.Sequencer),
	// so there is no post-checkpoint window whose tuples could be lost or
	// double-counted at the replacements.
	if total := totalOf(counts(e)); total != 4500 {
		t.Errorf("total = %d, want exactly 4500", total)
	}
}

// TestEngineIncrementalCheckpointRecovery drives the live engine with
// manual checkpoints with incremental checkpoints on: a full base, then
// deltas for small churn, then recovery from the folded backup — which
// must reconstruct exactly the same counts as full checkpointing would.
func TestEngineIncrementalCheckpointRecovery(t *testing.T) {
	e := wordEngine(t, Config{
		CheckpointInterval: time.Hour, // manual checkpoints only
		Incremental:        true,
	})
	e.Start()
	defer e.Stop()

	// Large keyspace as the base.
	if err := e.InjectBatch(inst("src", 1), 4000, wordGen(2000)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce before base checkpoint")
	}
	if err := e.Checkpoint(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	// Small churn, delta-checkpointed in two rounds.
	for round := 0; round < 2; round++ {
		if err := e.InjectBatch(inst("src", 1), 50, wordGen(10)); err != nil {
			t.Fatal(err)
		}
		if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
			t.Fatal("no quiesce before delta checkpoint")
		}
		if err := e.Checkpoint(inst("count", 1)); err != nil {
			t.Fatal(err)
		}
	}
	ship := e.Manager().Backups().ShipStats()
	if ship.Deltas != 2 {
		t.Fatalf("deltas shipped = %d, want 2 (stats %+v)", ship.Deltas, ship)
	}
	if ship.DeltaBytes/ship.Deltas >= ship.FullBytes/ship.Fulls {
		t.Errorf("avg delta %d not smaller than avg full %d",
			ship.DeltaBytes/ship.Deltas, ship.FullBytes/ship.Fulls)
	}

	if err := e.Fail(inst("count", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(inst("count", 1), 1); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce after recovery")
	}
	got := counts(e)
	if totalOf(got) != 4100 {
		t.Errorf("state total after recovery from folded backup = %d, want 4100", totalOf(got))
	}
}
