package seep_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seep"
)

// pacedCounter is a per-key counter that pauses after every `every`
// tuples, so a flood outruns it and its input edge fills.
type pacedCounter struct {
	store *seep.StateStore
	n     *seep.ValueState[int64]
	every int
	pause time.Duration
	seen  int
}

func pacedCounterFactory(every int, pause time.Duration) func() seep.Operator {
	return func() seep.Operator {
		s := seep.NewStateStore()
		return &pacedCounter{store: s, n: seep.NewValueState[int64](s, "n", seep.Int64Codec{}), every: every, pause: pause}
	}
}

func (c *pacedCounter) OnTuple(_ seep.Context, t seep.Tuple, emit seep.Emitter) {
	c.n.Update(t.Key, func(v int64) int64 { return v + 1 })
	emit(t.Key, t.Payload)
	if c.seen++; c.seen%c.every == 0 {
		time.Sleep(c.pause)
	}
}

func (c *pacedCounter) State() *seep.StateStore { return c.store }

// floodKey is the i-th key of the flood tests' key space.
func floodKey(i uint64) seep.Key { return seep.Key((i + 1) * 0x9E3779B97F4A7C15) }

// floodJob deploys src → map → cnt → sink on three loopback workers with
// a paced cnt and returns the job, a generator that cycles through keys
// keys across calls, and the count of tuples that reached the sink.
func floodJob(t *testing.T, keys uint64, pause time.Duration, opts ...seep.Option) (seep.Job, seep.Generator, *atomic.Int64) {
	t.Helper()
	topo, err := seep.NewTopology().
		Source("src").
		Stateless("map", func() seep.Operator { return seep.Passthrough() }).
		Stateful("cnt", pacedCounterFactory(64, pause)).
		Sink("sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	job, err := seep.Distributed(append([]seep.Option{seep.WithWorkers(3)}, opts...)...).Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	arrived := new(atomic.Int64)
	job.OnSink(func(seep.Tuple) { arrived.Add(1) })
	job.Start()
	t.Cleanup(job.Stop)
	var seq atomic.Uint64 // InjectBatch restarts its index on every call
	return job, func(uint64) (seep.Key, any) {
		i := seq.Add(1) - 1
		return floodKey(i % keys), int64(i)
	}, arrived
}

// awaitSink waits until n tuples reached the sink.
func awaitSink(t *testing.T, arrived *atomic.Int64, n int64, within time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(within); arrived.Load() < n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tuples at the sink after %v", arrived.Load(), n, within)
		}
	}
}

// exactCounts asserts the (single) cnt instance counted each of the
// total tuples exactly once: the generator cycles through the keys, so
// key i was sent once per full cycle and once more if the last, partial
// cycle reached it.
func exactCounts(t *testing.T, job seep.Job, keys uint64, total int64) {
	t.Helper()
	insts := job.Instances("cnt")
	if len(insts) != 1 {
		t.Fatalf("Instances(cnt) = %v", insts)
	}
	cnt, ok := job.OperatorOf(insts[0]).(*pacedCounter)
	if !ok {
		t.Fatalf("OperatorOf(%v) = %T", insts[0], job.OperatorOf(insts[0]))
	}
	if got := cnt.n.Len(); got != int(keys) {
		t.Errorf("%d keys counted, want %d", got, keys)
	}
	wrong := 0
	for i := uint64(0); i < keys; i++ {
		want := total / int64(keys)
		if int64(i) < total%int64(keys) {
			want++
		}
		if v, _ := cnt.n.Get(floodKey(i)); v != want {
			if wrong++; wrong <= 5 {
				t.Errorf("key %d counted %d times, want %d", i, v, want)
			}
		}
	}
}

// TestDistributedFloodBackpressure floods a three-worker pipeline whose
// counter cannot keep up, as fast as InjectBatch returns. The receiving
// node's bounded input is the only flow control on the way: the
// connection that feeds cnt stops being read while cnt's input is full,
// map's link and then map itself fill, and the source waits — so queues
// stay inside the bound, no call waits long, nothing is lost,
// duplicated, corrupted or re-dialled.
func TestDistributedFloodBackpressure(t *testing.T) {
	const (
		total     = 200_000
		perCall   = 500
		keys      = 1000
		batchSize = 64
		slots     = 4
	)
	job, gen, arrived := floodJob(t, keys, 50*time.Microsecond,
		seep.WithBatching(batchSize, time.Millisecond),
		seep.WithQueueBound(slots*batchSize),
		seep.WithCheckpointInterval(100*time.Millisecond),
		// Failure detection is not under test, and the race detector can
		// starve a heartbeat under this load.
		seep.WithDetectDelay(5*time.Second),
	)
	var worst time.Duration
	for sent := 0; sent < total; sent += perCall {
		start := time.Now()
		if err := job.InjectBatch("src", perCall, gen); err != nil {
			t.Fatal(err)
		}
		worst = max(worst, time.Since(start))
	}
	awaitSink(t, arrived, total, 120*time.Second)
	job.Run(300 * time.Millisecond) // quiesce

	if worst > time.Second {
		t.Errorf("one InjectBatch of %d tuples waited %v, want under 1 s", perCall, worst)
	}
	exactCounts(t, job, keys, total)
	m := job.MetricsSnapshot()
	if m.SinkTuples != total || arrived.Load() != total {
		t.Errorf("sink counted %d tuples (%d observed), want exactly %d", m.SinkTuples, arrived.Load(), total)
	}
	if m.Backpressure.CreditStalls == 0 {
		t.Error("no credit stalls: the flood never outran the counter")
	}
	// The input holds slots−1 batches; the batch in hand is the last slot.
	if m.Backpressure.PeakQueueDepth > slots-1 {
		t.Errorf("peak queue depth %d batches, want at most the queue's %d slots less the batch in hand (edges: %+v)", m.Backpressure.PeakQueueDepth, slots, m.Backpressure.Edges)
	}
	if m.DuplicatesDropped != 0 {
		t.Errorf("%d duplicates dropped on a failure-free run", m.DuplicatesDropped)
	}
	if m.Transport.Reconnects != 0 || m.Transport.CorruptFrames != 0 {
		t.Errorf("%d reconnects, %d corrupt frames on a healthy loopback", m.Transport.Reconnects, m.Transport.CorruptFrames)
	}
	if len(m.Recoveries) != 0 || len(m.Errors) != 0 {
		t.Errorf("recoveries %v, errors %v: want none", m.Recoveries, m.Errors)
	}
}

// TestDistributedMetricsSurviveWorkerDeath: a killed worker's counters
// stay in the job's sums. cnt's worker dies having counted send stalls
// and the deepest queue of the job; no counter of a later snapshot may
// read lower than an earlier one's.
func TestDistributedMetricsSurviveWorkerDeath(t *testing.T) {
	const keys, batchSize, slots = 100, 16, 2
	job, gen, arrived := floodJob(t, keys, 100*time.Microsecond,
		seep.WithBatching(batchSize, time.Millisecond),
		seep.WithQueueBound(slots*batchSize),
		seep.WithCheckpointInterval(50*time.Millisecond),
		seep.WithDetectDelay(200*time.Millisecond),
	)
	if err := job.InjectBatch("src", 20_000, gen); err != nil {
		t.Fatal(err)
	}
	awaitSink(t, arrived, 20_000, 60*time.Second)
	before := job.MetricsSnapshot()
	if before.Backpressure.Edges["cnt/1"].CreditStalls == 0 {
		t.Fatalf("cnt's edge counted no stalls before the kill: %+v", before.Backpressure.Edges)
	}
	if err := job.Fail(job.Instances("cnt")[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); len(job.MetricsSnapshot().Recoveries) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("cnt was not recovered")
		}
	}
	if err := job.InjectBatch("src", 1000, gen); err != nil {
		t.Fatal(err)
	}
	awaitSink(t, arrived, 21_000, 60*time.Second)
	after := job.MetricsSnapshot()

	for _, c := range []struct {
		name          string
		before, after uint64
	}{
		{"SinkTuples", before.SinkTuples, after.SinkTuples},
		{"DuplicatesDropped", before.DuplicatesDropped, after.DuplicatesDropped},
		{"Backpressure.CreditStalls", before.Backpressure.CreditStalls, after.Backpressure.CreditStalls},
		{"Backpressure.PeakQueueDepth", uint64(before.Backpressure.PeakQueueDepth), uint64(after.Backpressure.PeakQueueDepth)},
		{"Transport.FramesSent", before.Transport.FramesSent, after.Transport.FramesSent},
		{"Transport.BytesSent", before.Transport.BytesSent, after.Transport.BytesSent},
		{"Transport.CreditStalls", before.Transport.CreditStalls, after.Transport.CreditStalls},
	} {
		if c.after < c.before {
			t.Errorf("%s went backwards across the worker's death: %d → %d", c.name, c.before, c.after)
		}
	}
	if got := after.Backpressure.Edges["cnt/1"].CreditStalls; got != before.Backpressure.Edges["cnt/1"].CreditStalls {
		t.Errorf("the dead cnt/1's stall count reads %d, was %d when it died", got, before.Backpressure.Edges["cnt/1"].CreditStalls)
	}
}

// TestDistributedDeadLinkIsDropped: when cnt's worker dies under a
// steady stream, map's link toward it fills with batches nobody will
// read. The reroute that moves cnt away closes that link and drops its
// queue — the tuples are retained in map's output buffer and replayed to
// the replacement — instead of draining it one re-dial cycle per batch
// with map wedged behind it (which held the sink back 1.2–2.1 s past
// the recovery record, and one re-dial cycle longer per batch in flight):
// everything sent during the outage is through within a second of the
// recovery record, and every tuple counts once.
func TestDistributedDeadLinkIsDropped(t *testing.T) {
	const keys, perTick = 50, 8
	job, gen, arrived := floodJob(t, keys, 0,
		seep.WithBatching(perTick, 500*time.Microsecond),
		seep.WithCheckpointInterval(50*time.Millisecond),
		seep.WithDetectDelay(500*time.Millisecond),
	)
	// ~1000 batches/s toward cnt: the 256-batch link queue overflows well
	// inside the detection delay.
	var sent atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	stopInjecting := sync.OnceFunc(func() { close(stop); <-stopped })
	defer stopInjecting()
	go func() {
		defer close(stopped)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if job.InjectBatch("src", perTick, gen) != nil {
					return
				}
				sent.Add(perTick)
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	if err := job.Fail(job.Instances("cnt")[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); len(job.MetricsSnapshot().Recoveries) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("cnt was not recovered")
		}
	}
	recovered := time.Now()
	backlog := sent.Load()
	for arrived.Load() < backlog {
		if time.Since(recovered) > time.Second {
			t.Fatalf("%d of the %d tuples sent before the recovery record reached the sink 1 s after it", arrived.Load(), backlog)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // fresh traffic through the replacement
	stopInjecting()
	total := sent.Load()
	awaitSink(t, arrived, total, 30*time.Second)
	job.Run(300 * time.Millisecond) // quiesce

	exactCounts(t, job, keys, total)
	if got := arrived.Load(); got != total {
		t.Errorf("sink observed %d tuples, want exactly %d", got, total)
	}
	if m := job.MetricsSnapshot(); len(m.Recoveries) != 1 || len(m.Errors) != 0 {
		t.Errorf("recoveries %v, errors %v: want one recovery and no error", m.Recoveries, m.Errors)
	}
}
