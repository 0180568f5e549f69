package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/wordcount"
)

// slowWordEngine builds a word-count engine whose counter has a real
// per-tuple cost, so bounded queues fill and senders wait on full
// inputs.
func slowWordEngine(t *testing.T, cfg Config, delay time.Duration) *Engine {
	t.Helper()
	q := wordcount.Query(wordcount.Options{WindowMillis: 0})
	factories := map[plan.OpID]operator.Factory{
		"split": func() operator.Operator { return operator.WordSplitter() },
		"count": func() operator.Operator {
			return &slowCounter{WordCounter: operator.NewWordCounter(0), delay: delay}
		},
	}
	e, err := New(cfg, q, factories)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// slowTotal sums counter state across partitions (counts() in
// engine_test.go asserts the concrete WordCounter type, which the
// slowCounter wrapper hides).
func slowTotal(e *Engine) int64 {
	var total int64
	for _, in := range e.Manager().Instances("count") {
		if op, ok := e.OperatorOf(in).(interface{ Counts() map[string]int64 }); ok {
			for _, c := range op.Counts() {
				total += c
			}
		}
	}
	return total
}

// A bounded queue holds senders at its slots: the queue never grows past
// them, stalls are counted, and no tuple is lost while senders wait.
func TestEngineQueueBoundHoldsSenders(t *testing.T) {
	const queueBound, batchSize = 128, 32 // 4 slots per edge
	e := slowWordEngine(t, Config{
		CheckpointInterval: time.Hour,
		QueueBound:         queueBound,
		BatchSize:          batchSize,
	}, 200*time.Microsecond)
	e.Start()
	defer e.Stop()

	if err := e.InjectBatch(inst("src", 1), 3000, wordGen(40)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 20*time.Second) {
		t.Fatal("engine did not quiesce under a bounded queue")
	}
	bp := e.BackpressureSnapshot()
	if bp.CreditStalls == 0 {
		t.Error("no credit stalls recorded; the edge was never starved")
	}
	// The input holds slots−1 batches; the batch in hand is the last slot.
	slots := queueBound / batchSize
	if bp.PeakQueueDepth > slots-1 {
		t.Errorf("peak queue depth %d batches exceeds the %d-slot queue bound less the batch in hand", bp.PeakQueueDepth, slots)
	}
	if got := slowTotal(e); got != 3000 {
		t.Errorf("state total = %d, want 3000 (backpressure must not shed tuples)", got)
	}
}

// Deadlock freedom: checkpoint barriers, a scale-out, recovery replay
// and a spill ceiling all race against full edges; the
// engine must keep draining and quiesce (run with -race).
func TestEngineBackpressureDeadlockFreedom(t *testing.T) {
	e := slowWordEngine(t, Config{
		CheckpointInterval: 20 * time.Millisecond, // barriers race the stalled edges
		QueueBound:         128,
		BatchSize:          32,
		MemoryLimit:        32 << 10, // spill composes with backpressure
	}, 100*time.Microsecond)
	e.Start()
	defer e.Stop()

	const injectors, batches, per = 3, 8, 250
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				_ = e.InjectBatch(inst("src", 1), per, wordGen(60))
			}
		}()
	}
	// Manual checkpoints race the interval-driven barriers while the
	// edges are starved; errors (dead instance mid-recovery) are fine,
	// the test is that nothing wedges.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Checkpoint(inst("count", 1))
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	if err := e.ScaleOut(inst("count", 1), 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// Fail and recover a partition while its edges are full: replay
	// waits for room like any sender, so recovery must complete. The
	// scale-out renumbered the partitions, so pick a live one.
	victim := e.Manager().Instances("count")[0]
	if err := e.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(victim, 1); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if !e.Quiesce(150*time.Millisecond, 30*time.Second) {
		t.Fatal("deadlock: engine did not quiesce with barriers + scale-out + recovery racing full edges")
	}
	bp := e.BackpressureSnapshot()
	if bp.CreditStalls == 0 {
		t.Error("no credit stalls recorded; the race never starved an edge")
	}
	// Exactly-once must survive the chaos: replay covers what the
	// stopped receivers missed, per-sender watermarks drop the
	// redundant re-deliveries, and emitMu keeps concurrent injectors
	// FIFO per edge so the watermarks never discard live tuples.
	const injected = injectors * batches * per
	if total := slowTotal(e); total != injected {
		t.Errorf("total = %d, want exactly %d", total, injected)
	}
}

// gate is a stateless operator that passes one tuple per token, so a
// test decides exactly when a batch leaves the node's hands.
type gate struct{ tokens chan struct{} }

func (g *gate) OnTuple(_ operator.Context, t stream.Tuple, emit operator.Emitter) {
	<-g.tokens
	emit(t.Key, t.Payload)
}

// A tuple born at job time 0 keeps Born 0 through every hop, however
// late an operator emits its lineage: 0 is a time, not a missing stamp.
func TestBornZeroIsATime(t *testing.T) {
	g := &gate{tokens: make(chan struct{})}
	q, factories := gatedQuery(g)
	e, err := New(Config{BatchSize: 1}, q, factories)
	if err != nil {
		t.Fatal(err)
	}
	born := make(chan int64, 1)
	e.OnSink = func(t stream.Tuple) { born <- t.Born }
	e.Start()
	defer e.Stop()
	b := state.Batch{From: inst("src", 1), To: inst("cnt", 1), Tuples: []stream.Tuple{{TS: 1, Key: 1, Born: 0}}}
	if !e.DeliverLocal(b) {
		t.Fatal("DeliverLocal refused a batch for a hosted instance")
	}
	for e.NowMillis() < 2 {
		time.Sleep(time.Millisecond)
	}
	g.tokens <- struct{}{}
	select {
	case got := <-born:
		if got != 0 {
			t.Errorf("sink saw Born = %d, want 0", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the tuple never reached the sink")
	}
}

// gatedQuery is src → cnt → sink with a stateless cnt behind g.
func gatedQuery(g *gate) (*plan.Query, map[plan.OpID]operator.Factory) {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "cnt", Role: plan.RoleStateless})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "cnt").Connect("cnt", "sink")
	return q, map[plan.OpID]operator.Factory{"cnt": func() operator.Operator { return g }}
}

// settle waits for admitted to reach want and checks it stays there.
func settle(t *testing.T, admitted *atomic.Int64, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); admitted.Load() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d senders admitted, want %d", admitted.Load(), want)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if got := admitted.Load(); got != want {
		t.Fatalf("%d senders admitted, want %d", got, want)
	}
}

// One queue for both kinds of sender: a batch off the wire waits for
// room in the destination's input in DeliverLocal exactly as a local
// emitter's does, so the two together never hold more than the queue's
// slots queued or in hand.
func TestQueueCountsWireAndLocalSendersAlike(t *testing.T) {
	const slots = 2
	g := &gate{tokens: make(chan struct{})}
	q, factories := gatedQuery(g)
	e, err := New(Config{BatchSize: 1, QueueBound: slots}, q, factories)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.cfg.slots(); got != slots {
		t.Fatalf("slots() = %d, want QueueBound/BatchSize = %d", got, slots)
	}
	if got := (Config{}).withDefaults().slots(); got != 4096/128 {
		t.Fatalf("zero config slots() = %d, want the defaults' 4096/128", got)
	}
	e.Start()
	defer e.Stop()
	openGate := sync.OnceFunc(func() { close(g.tokens) })
	defer openGate() // before Stop, which waits for cnt's goroutine
	cnt := inst("cnt", 1)
	n := e.set.Load().byInst[cnt]

	// admitted counts senders — wire and local — whose batch was taken.
	var admitted atomic.Int64
	const wire, local = 4, 2
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // a remote upstream: its batches arrive through DeliverLocal
		defer wg.Done()
		remote := inst("src", 2)
		for ts := int64(1); ts <= wire; ts++ {
			b := state.Batch{From: remote, To: cnt, Tuples: []stream.Tuple{{TS: ts, Key: stream.Key(ts)}}}
			if !e.DeliverLocal(b) {
				t.Error("DeliverLocal refused a batch for a hosted instance")
			}
			admitted.Add(1)
		}
	}()
	go func() { // the local upstream
		defer wg.Done()
		for i := 0; i < local; i++ {
			if err := e.InjectBatch(inst("src", 1), 1, wordGen(4)); err != nil {
				t.Error(err)
			}
			admitted.Add(1)
		}
	}()
	// With the operator shut, exactly one batch per slot is queued or in
	// hand — whoever sent it — and every processed batch admits exactly
	// one more.
	check := func(want int64) {
		t.Helper()
		settle(t, &admitted, want)
		if got := n.held(); got != slots {
			t.Fatalf("cnt holds %d batches while senders wait, want all %d slots", got, slots)
		}
	}
	check(slots)
	for done := int64(1); done <= wire+local-slots; done++ {
		g.tokens <- struct{}{}
		check(slots + done)
	}
	openGate()
	wg.Wait()
	if !e.Quiesce(50*time.Millisecond, 5*time.Second) {
		t.Fatal("engine did not drain")
	}
	if got := e.SinkCount.Value(); got != wire+local {
		t.Errorf("sink saw %d tuples, want %d", got, wire+local)
	}
	if got := n.held(); got != 0 {
		t.Errorf("idle cnt holds %d batches, want 0", got)
	}
	if bp := e.BackpressureSnapshot(); bp.PeakQueueDepth > slots-1 {
		t.Errorf("peak queue depth %d exceeds the %d-slot queue less the batch in hand", bp.PeakQueueDepth, slots)
	}
}

// A replayed batch counts toward the queue bound like any other: once
// the replay's tuple has passed, a sender that waited behind it gets one
// batch in, not one for the replay's slot as well.
func TestQueueBoundHoldsAcrossReplay(t *testing.T) {
	const slots = 2
	g := &gate{tokens: make(chan struct{})}
	q, factories := gatedQuery(g)
	e, err := New(Config{BatchSize: 1, QueueBound: slots}, q, factories)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	openGate := sync.OnceFunc(func() { close(g.tokens) })
	defer openGate() // before Stop, which waits for cnt's goroutine
	cnt := inst("cnt", 1)
	n := e.set.Load().byInst[cnt]

	// The replay comes from an adopted replacement whose checkpoint
	// retains one tuple for cnt, and is in cnt's hands before the sender
	// starts.
	fresh := state.NewInstance(nil)
	cp := fresh.BeginCheckpoint(inst("src", 2)).Checkpoint(false)
	cp.Buffer.Append(cnt, stream.Tuple{TS: 1, Key: 1})
	if _, err := e.AdoptInstance(cp, nil, nil); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); n.held() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the replay never reached cnt")
		}
	}
	var admitted, refused atomic.Int64
	const sent = 6
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ts := int64(1); ts <= sent; ts++ {
			b := state.Batch{From: inst("src", 1), To: cnt, Tuples: []stream.Tuple{{TS: ts, Key: stream.Key(ts)}}}
			if !e.DeliverLocal(b) {
				refused.Add(1)
			}
			admitted.Add(1)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); n.stalls.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sender never waited behind the replay")
		}
	}
	g.tokens <- struct{}{}
	for deadline := time.Now().Add(5 * time.Second); e.SinkCount.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the replay's tuple never reached the sink")
		}
	}
	// No sent batch has passed the gate, so every admitted one is queued
	// or in hand.
	settle(t, &admitted, slots)
	if got := n.held(); got > slots {
		t.Errorf("cnt holds %d batches after the replay passed, want at most %d", got, slots)
	}
	openGate()
	<-done
	if r := refused.Load(); r > 0 {
		t.Fatalf("DeliverLocal refused %d batches for a hosted instance", r)
	}
	if !e.Quiesce(50*time.Millisecond, 5*time.Second) {
		t.Fatal("engine did not drain")
	}
	if got := e.SinkCount.Value(); got != sent+1 {
		t.Errorf("sink saw %d tuples, want %d", got, sent+1)
	}
}

// Emitting one chunk toward a local node allocates nothing once the
// tuple pool is warm: the node step builds its batches into the node's
// reused output slice, and the send path queues the batch without a
// per-chunk scratch of its own.
func TestEmitChunkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	const chunk, rounds = 256, 50
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "sink")
	e, err := New(Config{BatchSize: chunk}, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the test drains the sink's queue itself and keeps each
	// batch, so the measured rounds draw only slices recycled beforehand.
	src, sink := e.nodes[inst("src", 1)], e.nodes[inst("sink", 1)]
	items := make([]state.Staged, chunk)
	for i := range items {
		items[i] = state.Staged{Key: stream.Key(i), Born: 1}
	}
	for range rounds + 1 {
		state.Batch{Tuples: make([]stream.Tuple, 0, chunk)}.Recycle()
	}
	allocs := testing.AllocsPerRun(rounds, func() {
		src.emitChunk(items)
		if b := <-sink.in; len(b.Tuples) != chunk {
			t.Fatalf("sink queued %d tuples, want %d", len(b.Tuples), chunk)
		}
	})
	if allocs != 0 {
		t.Errorf("emitting a %d-tuple chunk allocates %.0f times, want 0", chunk, allocs)
	}
}
