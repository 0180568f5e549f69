package seep_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"seep"
)

// parityVocab is 10 words; each InjectBatch of 300 tuples contributes
// exactly 30 observations per word.
func parityGen(i uint64) (seep.Key, any) {
	w := fmt.Sprintf("w%02d", i%10)
	return seep.KeyOfString(w), w
}

func wordcountTopology() *seep.Topology {
	return seep.NewTopology().
		Source("src").
		Stateless("split", splitFactory).
		Stateful("count", countFactory).
		Sink("sink")
}

// TestRuntimeParityWordCount runs one identical scenario — inject a
// batch, crash the stateful counter, let the runtime detect and recover
// it, inject a second batch — against BOTH substrates through the shared
// Runtime/Job interface, and asserts they converge to the same managed
// state: every tuple reflected exactly once, before and after the
// failure. This is the paper's central claim (recovery is scale out with
// π=1, driven by the same state-management primitives) holding
// regardless of the substrate.
func TestRuntimeParityWordCount(t *testing.T) {
	runtimes := []struct {
		name string
		rt   seep.Runtime
	}{
		{"live", seep.Live(
			seep.WithCheckpointInterval(100*time.Millisecond),
			seep.WithDetectDelay(200*time.Millisecond),
		)},
		{"sim", seep.Simulated(
			seep.WithSeed(42),
			seep.WithFTMode(seep.FTRSM),
			seep.WithCheckpointInterval(500*time.Millisecond),
		)},
	}

	type outcome struct {
		counts     map[string]int64
		recoveries int
	}
	results := make(map[string]outcome)

	for _, r := range runtimes {
		t.Run(r.rt.Name(), func(t *testing.T) {
			if r.rt.Name() != r.name {
				t.Fatalf("Name() = %q, want %q", r.rt.Name(), r.name)
			}
			job, err := r.rt.Deploy(wordcountTopology())
			if err != nil {
				t.Fatal(err)
			}
			job.Start()
			defer job.Stop()

			// Phase 1: 300 tuples processed and periodically
			// checkpointed to the upstream backup.
			if err := job.InjectBatch("src", 300, parityGen); err != nil {
				t.Fatal(err)
			}
			job.Run(2 * time.Second)

			// Crash the counter. The runtime must detect the failure
			// and recover state via the integrated scale-out algorithm.
			victims := job.Instances("count")
			if len(victims) != 1 {
				t.Fatalf("Instances(count) = %v", victims)
			}
			if err := job.Fail(victims[0]); err != nil {
				t.Fatal(err)
			}
			job.Run(3 * time.Second)

			// Phase 2: the recovered instance keeps counting.
			if err := job.InjectBatch("src", 300, parityGen); err != nil {
				t.Fatal(err)
			}
			job.Run(2 * time.Second)

			insts := job.Instances("count")
			if len(insts) != 1 {
				t.Fatalf("Instances(count) after recovery = %v", insts)
			}
			if insts[0] == victims[0] {
				t.Fatalf("failed instance %v still live", victims[0])
			}
			counter, ok := job.OperatorOf(insts[0]).(*seep.WordCounter)
			if !ok {
				t.Fatalf("OperatorOf(%v) = %T", insts[0], job.OperatorOf(insts[0]))
			}
			counts := make(map[string]int64, 10)
			for i := 0; i < 10; i++ {
				w := fmt.Sprintf("w%02d", i)
				counts[w] = counter.Count(w)
				if counts[w] != 60 {
					t.Errorf("Count(%s) = %d, want 60 (exactly once across the failure)", w, counts[w])
				}
			}
			m := job.MetricsSnapshot()
			if len(m.Recoveries) != 1 {
				t.Errorf("Recoveries = %v, want exactly one", m.Recoveries)
			}
			for _, rec := range m.Recoveries {
				if !rec.Failure || rec.Victim != victims[0] || rec.Pi != 1 {
					t.Errorf("recovery record = %+v", rec)
				}
			}
			if m.Parallelism["count"] != 1 {
				t.Errorf("Parallelism[count] = %d", m.Parallelism["count"])
			}
			if m.SinkTuples == 0 {
				t.Error("no tuples reached the sink")
			}
			results[r.name] = outcome{counts: counts, recoveries: len(m.Recoveries)}
		})
	}

	live, sim := results["live"], results["sim"]
	if live.counts == nil || sim.counts == nil {
		t.Fatal("missing results from one runtime")
	}
	if !reflect.DeepEqual(live.counts, sim.counts) {
		t.Errorf("behavioural divergence: live counts %v != sim counts %v", live.counts, sim.counts)
	}
	if live.recoveries != sim.recoveries {
		t.Errorf("recoveries: live %d != sim %d", live.recoveries, sim.recoveries)
	}
}

// TestRuntimeRejectsForeignOptions: options restricted to one substrate
// are a deploy error on the other, never a silent no-op.
func TestRuntimeRejectsForeignOptions(t *testing.T) {
	if _, err := seep.Live(seep.WithVMPool(seep.PoolConfig{Size: 2})).Deploy(wordcountTopology()); err == nil {
		t.Error("Live accepted WithVMPool")
	}
	if _, err := seep.Live(seep.WithFTMode(seep.FTUpstreamBackup)).Deploy(wordcountTopology()); err == nil {
		t.Error("Live accepted WithFTMode")
	}
	if _, err := seep.Simulated(seep.WithQueueBound(64)).Deploy(wordcountTopology()); err == nil {
		t.Error("Simulated accepted WithQueueBound")
	}
	// Scale in without a scaling policy is meaningless.
	if _, err := seep.Simulated(seep.WithScaleIn(seep.DefaultScaleInPolicy())).Deploy(wordcountTopology()); err == nil {
		t.Error("Simulated accepted WithScaleIn without WithPolicy")
	}
	// Out-of-range option values are errors, not silent coercions to
	// the substrate default.
	if _, err := seep.Live(seep.WithDetectDelay(0)).Deploy(wordcountTopology()); err == nil {
		t.Error("Live accepted WithDetectDelay(0)")
	}
	if _, err := seep.Simulated(seep.WithRecoveryParallelism(0)).Deploy(wordcountTopology()); err == nil {
		t.Error("Simulated accepted WithRecoveryParallelism(0)")
	}
	if _, err := seep.Live(seep.WithCheckpointInterval(-time.Second)).Deploy(wordcountTopology()); err == nil {
		t.Error("Live accepted a negative checkpoint interval")
	}
}

// TestLiveRecoveryFailureSurfacesInMetrics: an automatic recovery that
// cannot complete (π beyond the operator's max parallelism) reports
// through Metrics.Errors instead of disappearing.
func TestLiveRecoveryFailureSurfacesInMetrics(t *testing.T) {
	topo := seep.NewTopology().
		Source("src").
		Stateless("split", splitFactory).
		Stateful("count", countFactory, seep.MaxParallelism(1)).
		Sink("sink")
	job, err := seep.Live(
		seep.WithCheckpointInterval(50*time.Millisecond),
		seep.WithDetectDelay(100*time.Millisecond),
		seep.WithRecoveryParallelism(2),
	).Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	defer job.Stop()
	if err := job.InjectBatch("src", 100, parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(time.Second)
	if err := job.Fail(job.Instances("count")[0]); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)
	m := job.MetricsSnapshot()
	if len(m.Recoveries) != 0 {
		t.Errorf("Recoveries = %v, want none (recovery must fail)", m.Recoveries)
	}
	if len(m.Errors) != 1 {
		t.Fatalf("Errors = %v, want the failed recovery reported", m.Errors)
	}
}

// TestRuntimeDeployRejectsInvalidTopology: Deploy surfaces Build errors
// for topologies not built explicitly.
func TestRuntimeDeployRejectsInvalidTopology(t *testing.T) {
	bad := seep.NewTopology().Source("src").Sink("sink").Connect("src", "ghost")
	if _, err := seep.Live().Deploy(bad); err == nil {
		t.Error("Live deployed a topology with a dangling edge")
	}
	if _, err := seep.Simulated().Deploy(bad); err == nil {
		t.Error("Simulated deployed a topology with a dangling edge")
	}
	if _, err := seep.Live().Deploy(nil); err == nil {
		t.Error("Live deployed a nil topology")
	}
}

// TestConcurrentDeployOfOneTopology: one unbuilt topology deployed on
// both runtimes concurrently is an advertised usage; Build must be safe
// to race (run under -race in CI).
func TestConcurrentDeployOfOneTopology(t *testing.T) {
	topo := wordcountTopology()
	errc := make(chan error, 2)
	go func() { _, err := seep.Live().Deploy(topo); errc <- err }()
	go func() { _, err := seep.Simulated(seep.WithSeed(1)).Deploy(topo); errc <- err }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSimulatedScaleOutThroughJob exercises explicit scale out through
// the shared interface on the simulated substrate.
func TestSimulatedScaleOutThroughJob(t *testing.T) {
	job, err := seep.Simulated(seep.WithSeed(3)).Deploy(wordcountTopology())
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	defer job.Stop()
	if err := job.AddSource("src", seep.ConstantRate(500), parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(5 * time.Second)
	if err := job.ScaleOut(job.Instances("count")[0], 2); err != nil {
		t.Fatal(err)
	}
	job.Run(10 * time.Second)
	m := job.MetricsSnapshot()
	if m.Parallelism["count"] != 2 {
		t.Errorf("Parallelism[count] = %d, want 2", m.Parallelism["count"])
	}
	if len(m.Recoveries) != 1 || m.Recoveries[0].Failure {
		t.Errorf("Recoveries = %v, want one scale-out record", m.Recoveries)
	}
	if m.ElapsedMillis != 15_000 {
		t.Errorf("ElapsedMillis = %d, want 15000 (virtual)", m.ElapsedMillis)
	}
}
