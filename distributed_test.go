package seep_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"seep"
)

// TestRuntimeParityLiveVsDistributed runs the identical
// inject → crash → recover → inject scenario of TestRuntimeParityWordCount
// on the Live runtime and on the Distributed runtime with three loopback
// workers, and asserts they converge to the same managed state: every
// tuple reflected exactly once across the failure. On the distributed
// substrate the failure is harsher — Job.Fail crash-stops the whole
// worker VM hosting the counter, detection is real heartbeat loss over
// TCP, and recovery replays across process-style boundaries — yet the
// per-key counts must match the in-process run exactly.
func TestRuntimeParityLiveVsDistributed(t *testing.T) {
	runtimes := []struct {
		name string
		rt   seep.Runtime
	}{
		{"live", seep.Live(
			seep.WithCheckpointInterval(100*time.Millisecond),
			seep.WithDetectDelay(200*time.Millisecond),
		)},
		{"dist", seep.Distributed(
			seep.WithWorkers(3),
			seep.WithCheckpointInterval(100*time.Millisecond),
			seep.WithDetectDelay(200*time.Millisecond),
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

			if err := job.InjectBatch("src", 300, parityGen); err != nil {
				t.Fatal(err)
			}
			job.Run(2 * time.Second)

			victims := job.Instances("count")
			if len(victims) != 1 {
				t.Fatalf("Instances(count) = %v", victims)
			}
			// Live: crash the instance's VM. Distributed: crash the whole
			// worker hosting it — everything else must survive and the
			// counter must be recovered elsewhere.
			if err := job.Fail(victims[0]); err != nil {
				t.Fatal(err)
			}
			job.Run(4 * time.Second)

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
			if m.SinkTuples == 0 {
				t.Error("no tuples reached the sink")
			}
			if len(m.Errors) != 0 {
				t.Errorf("Errors = %v", m.Errors)
			}
			if r.name == "dist" {
				// The distributed run must actually have used the wire.
				if m.Transport.FramesSent == 0 || m.Transport.BytesSent == 0 {
					t.Errorf("no transport traffic recorded: %+v", m.Transport)
				}
			} else if m.Transport != (seep.TransportStats{}) {
				t.Errorf("live runtime reported transport traffic: %+v", m.Transport)
			}
			results[r.name] = outcome{counts: counts, recoveries: len(m.Recoveries)}
		})
	}

	live, dst := results["live"], results["dist"]
	if live.counts == nil || dst.counts == nil {
		t.Fatal("missing results from one runtime")
	}
	if !reflect.DeepEqual(live.counts, dst.counts) {
		t.Errorf("behavioural divergence: live counts %v != dist counts %v", live.counts, dst.counts)
	}
	if live.recoveries != dst.recoveries {
		t.Errorf("recoveries: live %d != dist %d", live.recoveries, dst.recoveries)
	}
}

// TestDistributedRejectsForeignOptions: substrate-restricted options are
// Deploy errors on the wrong runtime — same contract as Live/Simulated.
func TestDistributedRejectsForeignOptions(t *testing.T) {
	if _, err := seep.Live(seep.WithWorkers(3)).Deploy(wordcountTopology()); err == nil {
		t.Error("Live accepted WithWorkers")
	}
	if _, err := seep.Simulated(seep.WithWorkerAddrs("127.0.0.1:1")).Deploy(wordcountTopology()); err == nil {
		t.Error("Simulated accepted WithWorkerAddrs")
	}
	if _, err := seep.Distributed(seep.WithFTMode(seep.FTSourceReplay)).Deploy(wordcountTopology()); err == nil {
		t.Error("Distributed accepted WithFTMode")
	}
	// WithSeed is universal: every substrate accepts it (reproducibility
	// tooling reads it back), so it must NOT be rejected here.
	if job, err := seep.Distributed(seep.WithSeed(1), seep.WithWorkers(1)).Deploy(wordcountTopology()); err != nil {
		t.Errorf("Distributed rejected WithSeed: %v", err)
	} else {
		job.Stop()
	}
	if _, err := seep.Distributed(seep.WithWorkers(0)).Deploy(wordcountTopology()); err == nil {
		t.Error("Distributed accepted WithWorkers(0)")
	}
	// External workers need a registry name to instantiate operators.
	if _, err := seep.Distributed(seep.WithWorkerAddrs("127.0.0.1:1")).Deploy(wordcountTopology()); err == nil {
		t.Error("Distributed accepted WithWorkerAddrs without WithTopologyName")
	}
	if _, err := seep.Distributed(
		seep.WithWorkers(2), seep.WithWorkerAddrs("127.0.0.1:1"), seep.WithTopologyName("x"),
	).Deploy(wordcountTopology()); err == nil {
		t.Error("Distributed accepted WithWorkers together with WithWorkerAddrs")
	}
}

// TestDistributedScaleOutThroughJob exercises the coordinator's
// barrier → retire → reroute → deploy transition through the public Job
// interface and checks partitioned counters cover the key space.
func TestDistributedScaleOutThroughJob(t *testing.T) {
	job, err := seep.Distributed(
		seep.WithWorkers(3),
		seep.WithCheckpointInterval(100*time.Millisecond),
	).Deploy(wordcountTopology())
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	defer job.Stop()
	if err := job.InjectBatch("src", 300, parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)
	if err := job.ScaleOut(job.Instances("count")[0], 2); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)
	if err := job.InjectBatch("src", 300, parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)

	m := job.MetricsSnapshot()
	if m.Parallelism["count"] != 2 {
		t.Errorf("Parallelism[count] = %d, want 2", m.Parallelism["count"])
	}
	if len(m.Recoveries) != 1 || m.Recoveries[0].Failure {
		t.Errorf("Recoveries = %v, want one scale-out record", m.Recoveries)
	}
	totals := make(map[string]int64)
	for _, inst := range job.Instances("count") {
		c, ok := job.OperatorOf(inst).(*seep.WordCounter)
		if !ok {
			t.Fatalf("OperatorOf(%v) = %T", inst, job.OperatorOf(inst))
		}
		for i := 0; i < 10; i++ {
			w := fmt.Sprintf("w%02d", i)
			totals[w] += c.Count(w)
		}
	}
	for w, n := range totals {
		if n != 60 {
			t.Errorf("total Count(%s) = %d, want 60", w, n)
		}
	}
}

// bigCounter keeps one managed int64 per key and forwards its input: the
// bench's operator, so a checkpoint of it is as large as the key set.
type bigCounter struct {
	store *seep.StateStore
	n     *seep.ValueState[int64]
}

func newBigCounter() seep.Operator {
	s := seep.NewStateStore()
	return &bigCounter{store: s, n: seep.NewValueState[int64](s, "n", seep.Int64Codec{})}
}

func (c *bigCounter) OnTuple(_ seep.Context, t seep.Tuple, emit seep.Emitter) {
	c.n.Update(t.Key, func(v int64) int64 { return v + 1 })
	emit(t.Key, t.Payload)
}

func (c *bigCounter) State() *seep.StateStore { return c.store }

// TestDistributedLargeStateAtDefaultDetectDelay is the regression test
// for false orphaning: with 100k keys every checkpoint ship is a
// multi-megabyte blob, and a coordinator that decodes it inside its
// event loop answers heartbeats late — at the default detection delay a
// worker then declares the coordinator dead, goes orphan and stops
// shipping checkpoints for good. Storing the ship's bytes keeps the loop
// free: over ten checkpoint intervals under load no heartbeat is missed,
// every interval's checkpoints keep arriving, and nothing is recovered.
func TestDistributedLargeStateAtDefaultDetectDelay(t *testing.T) {
	const (
		keys      = 100_000
		interval  = 250 * time.Millisecond
		intervals = 12
	)
	topo, err := seep.NewTopology().
		Source("src").
		Stateless("map", func() seep.Operator { return seep.Passthrough() }).
		Stateful("cnt", newBigCounter).
		Sink("sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	job, err := seep.Distributed( // no WithDetectDelay: the default is under test
		seep.WithWorkers(3),
		seep.WithBatching(256, 2*time.Millisecond),
		seep.WithCheckpointInterval(interval),
	).Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	var arrived atomic.Int64
	job.OnSink(func(seep.Tuple) { arrived.Add(1) })
	job.Start()
	defer job.Stop()

	var sent int64
	gen := func(i uint64) (seep.Key, any) { return seep.Key((i % keys) * 0x9E3779B97F4A7C15), int64(i) }
	inject := func(n int) {
		t.Helper()
		if err := job.InjectBatch("src", n, gen); err != nil {
			t.Fatal(err)
		}
		sent += int64(n)
	}
	inject(keys) // one cell per key before the clock starts
	for deadline := time.Now().Add(30 * time.Second); arrived.Load() < sent; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fill: %d of %d tuples at the sink", arrived.Load(), sent)
		}
	}

	// A steady 10k tuples/s, so each checkpoint also carries the output
	// buffered since the last acknowledgement.
	before := job.MetricsSnapshot()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var mid seep.Metrics
	for start := time.Now(); time.Since(start) < intervals*interval; <-tick.C {
		inject(20)
		if mid.ElapsedMillis == 0 && time.Since(start) >= intervals*interval/2 {
			mid = job.MetricsSnapshot()
		}
	}
	after := job.MetricsSnapshot()

	// Under the race detector a worker's checkpoint stall alone outlasts a
	// heartbeat period; single misses are then expected, orphaning is not.
	if n := after.Transport.HeartbeatMisses - before.Transport.HeartbeatMisses; n != 0 && !raceEnabled {
		t.Errorf("%d heartbeat misses in %d checkpoint intervals at the default detection delay", n, intervals)
	}
	// An orphaned worker stops shipping: both halves of the run must see
	// cnt's and map's checkpoint of (nearly) every interval.
	for _, half := range []struct {
		name     string
		from, to seep.Metrics
	}{{"first", before, mid}, {"second", mid, after}} {
		if got := half.to.Checkpoints.Fulls - half.from.Checkpoints.Fulls; got < intervals/2 {
			t.Errorf("%s half: %d checkpoints stored, want at least %d", half.name, got, intervals/2)
		}
	}
	if len(after.Recoveries) != 0 || len(after.Errors) != 0 {
		t.Errorf("recoveries %v, errors %v: want none", after.Recoveries, after.Errors)
	}
}

// TestDistributedStopMidFlood stops a 3-worker job while tuples and
// checkpoints are in flight: engine goroutines are still enqueueing
// batches on the outbound links when teardown ends those links. Run
// under -race, which reports a send racing a channel close; the links end
// through a done channel instead, so teardown is just a dropped batch.
func TestDistributedStopMidFlood(t *testing.T) {
	for round := 0; round < 3; round++ {
		job, err := seep.Distributed(
			seep.WithWorkers(3),
			seep.WithBatching(16, time.Millisecond),
			seep.WithCheckpointInterval(20*time.Millisecond),
		).Deploy(wordcountTopology())
		if err != nil {
			t.Fatal(err)
		}
		job.Start()
		flooded := make(chan int)
		go func() {
			n := 0
			// InjectBatch fails once the source's worker is gone.
			for job.InjectBatch("src", 500, parityGen) == nil {
				n += 500
			}
			flooded <- n
		}()
		time.Sleep(150 * time.Millisecond)
		job.Stop()
		select {
		case n := <-flooded:
			if n == 0 {
				t.Error("nothing was in flight when the job stopped")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the flood did not end with the job")
		}
	}
}
