package seep_test

import (
	"fmt"
	"testing"
	"time"

	"seep"
)

// Example builds the §3.1 running example — a word-frequency query with
// managed operator state — with the fluent Topology builder, runs it on
// the live runtime and reads the counter's state back.
func Example() {
	topo, err := seep.NewTopology().
		Source("src").
		Stateless("split", func() seep.Operator { return seep.WordSplitter() }).
		Stateful("count", func() seep.Operator { return seep.NewWordCounter(0) }).
		Sink("sink").
		Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	job, err := seep.Live().Deploy(topo)
	if err != nil {
		fmt.Println(err)
		return
	}
	job.Start()
	defer job.Stop()

	sentences := []string{"first set", "second set"}
	_ = job.InjectBatch("src", len(sentences), func(i uint64) (seep.Key, any) {
		return seep.KeyOf([]byte(sentences[i])), sentences[i]
	})
	job.Run(5 * time.Second)

	counter := job.OperatorOf(job.Instances("count")[0]).(*seep.WordCounter)
	fmt.Println("set:", counter.Count("set"))
	fmt.Println("first:", counter.Count("first"))
	// Output:
	// set: 2
	// first: 1
}

// TestPublicAPIEndToEnd drives the full public surface on the live
// runtime: build a topology, deploy, inject, fail, auto-recover, scale
// out, and verify state.
func TestPublicAPIEndToEnd(t *testing.T) {
	job, err := seep.Live(
		seep.WithCheckpointInterval(100*time.Millisecond),
		seep.WithDetectDelay(150*time.Millisecond),
	).Deploy(wordcountTopology())
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	defer job.Stop()

	if err := job.InjectBatch("src", 500, parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)
	victim := job.Instances("count")[0]
	if err := job.Fail(victim); err != nil {
		t.Fatal(err)
	}
	job.Run(3 * time.Second)
	if err := job.InjectBatch("src", 250, parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)

	recovered := job.Instances("count")[0]
	counter := job.OperatorOf(recovered).(*seep.WordCounter)
	for i := 0; i < 10; i++ {
		w := fmt.Sprintf("w%02d", i)
		if got := counter.Count(w); got != 75 {
			t.Errorf("Count(%s) = %d, want 75", w, got)
		}
	}
	// Scale out the recovered instance through the Job interface.
	if err := job.ScaleOut(recovered, 2); err != nil {
		t.Fatal(err)
	}
	m := job.MetricsSnapshot()
	if got := m.Parallelism["count"]; got != 2 {
		t.Errorf("parallelism = %d", got)
	}
	if len(m.Recoveries) != 2 {
		t.Errorf("Recoveries = %v, want failure recovery + scale out", m.Recoveries)
	}
}

// TestPublicAPISimCluster drives the simulated-cloud substrate through
// the same Job interface.
func TestPublicAPISimCluster(t *testing.T) {
	topo, err := seep.NewTopology().
		Source("src").
		Stateful("sum", func() seep.Operator {
			return seep.NewKeyedSum(0, func(p any) (float64, bool) {
				v, ok := p.(float64)
				return v, ok
			})
		}, seep.Cost(0.0001)).
		Sink("sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	job, err := seep.Simulated(
		seep.WithSeed(1),
		seep.WithFTMode(seep.FTRSM),
		seep.WithCheckpointInterval(2*time.Second),
		seep.WithVMPool(seep.PoolConfig{Size: 2}),
	).Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.AddSource("src", seep.ConstantRate(200), func(i uint64) (seep.Key, any) {
		return seep.Key(i % 7), 1.0
	}); err != nil {
		t.Fatal(err)
	}
	job.Start()
	defer job.Stop()
	job.Run(10 * time.Second)
	if err := job.Fail(job.Instances("sum")[0]); err != nil {
		t.Fatal(err)
	}
	job.Run(20 * time.Second)

	m := job.MetricsSnapshot()
	if len(m.Recoveries) != 1 {
		t.Fatalf("recoveries = %v", m.Recoveries)
	}
	live := job.Instances("sum")
	if len(live) != 1 {
		t.Fatalf("live = %v", live)
	}
	sum := job.OperatorOf(live[0]).(*seep.KeyedSum)
	var total float64
	for k := seep.Key(0); k < 7; k++ {
		total += sum.Sum(k)
	}
	// 200 tuples/s × ~30 s ≈ 6000 observations of value 1.0; allow for
	// tuples in flight at the cut-off.
	if total < 5900 || total > 6000 {
		t.Errorf("recovered running total = %v, want ≈6000", total)
	}
	if m.Latency.Count == 0 {
		t.Error("no latency samples")
	}
	if seep.DefaultPolicy().Threshold != 0.70 {
		t.Error("unexpected default policy")
	}
}
