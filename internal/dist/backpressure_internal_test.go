package dist

import (
	"testing"
	"time"

	"seep/internal/engine"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/transport"
)

// Teardown ends a link through its done channel — the queue stays open,
// so a sender racing the end of the job drops its message instead of
// sending on a closed channel — and link refuses to create another one,
// so a late sender cannot leave a writer goroutine behind.
func TestLinkTeardown(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.link("127.0.0.1:1") != nil {
		t.Error("link created before any assignment")
	}
	w.lmu.Lock()
	w.links = make(map[string]*peerLink) // what handleAssign arms
	w.lmu.Unlock()
	pl := w.link("127.0.0.1:1")
	if pl == nil || w.link("127.0.0.1:1") != pl {
		t.Fatal("link not created once per address")
	}
	w.Kill()
	select {
	case <-pl.done:
	default:
		t.Fatal("Kill left the link running")
	}
	for i := 0; i < 2*cap(pl.q); i++ {
		pl.enqueue(state.Batch{}) // past the queue's capacity: must not block
	}
	if w.link("127.0.0.1:1") != nil {
		t.Error("link re-created after teardown")
	}
}

// gateQuery is src → pass → cnt → sink with a stateless cnt that
// passes one tuple per token received on the returned channel.
func gateQuery() (*plan.Query, map[plan.OpID]operator.Factory, chan struct{}) {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "pass", Role: plan.RoleStateless})
	q.AddOp(plan.OpSpec{ID: "cnt", Role: plan.RoleStateless})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "pass").Connect("pass", "cnt").Connect("cnt", "sink")
	tokens := make(chan struct{})
	return q, map[plan.OpID]operator.Factory{
		"pass": operator.Passthrough,
		"cnt":  func() operator.Operator { return gate(tokens) },
	}, tokens
}

type gate chan struct{}

func (g gate) OnTuple(_ operator.Context, t stream.Tuple, emit operator.Emitter) {
	<-g
	emit(t.Key, t.Payload)
}

// stalledWorker runs gateQuery on a worker with one-slot queues and
// three deliveries toward cnt#1 — one in hand, one waiting for the
// handoff, one behind it — and returns once a delivery has stalled. The
// MsgAck controls the worker sends reach the returned channel;
// delivered closes once the deliveries complete.
func stalledWorker(t *testing.T) (w *Worker, eng *engine.Engine, tokens chan struct{}, acks <-chan *Control, delivered <-chan struct{}) {
	t.Helper()
	ackc := make(chan *Control, 1)
	coordLn, err := transport.ListenWith("127.0.0.1:0", nil, transport.Handlers{OnControl: func(body []byte) {
		if c, err := decodeControl(body); err == nil && c.Kind == MsgAck {
			ackc <- c
		}
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coordLn.Close() })
	coord, err := transport.Dial(coordLn.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err = NewWorker("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Kill)
	q, factories, tokens := gateQuery()
	t.Cleanup(func() { close(tokens) }) // before Kill, which stops the engine
	eng, err = engine.New(engine.Config{BatchSize: 1, QueueBound: 1}, q, factories)
	if err != nil {
		t.Fatal(err)
	}
	// engPtr stays unset, so every batch takes the locked hosted-or-stash
	// decision — the path of a batch racing a MsgDeploy.
	w.mu.Lock()
	w.eng, w.coord = eng, coord
	w.mu.Unlock()
	eng.Start()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for ts := int64(1); ts <= 3; ts++ {
			w.deliver(state.Batch{From: plan.InstanceID{Op: "pass", Part: 1}, To: cnt1, Tuples: []stream.Tuple{{TS: ts, Key: 1}}})
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); eng.BackpressureSnapshot().CreditStalls == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the delivery never stalled on cnt's one-slot queue")
		}
	}
	return w, eng, tokens, ackc, done
}

var cnt1 = plan.InstanceID{Op: "cnt", Part: 1}

// deploy dispatches a MsgDeploy of cp and waits for its acknowledgement.
func deploy(t *testing.T, w *Worker, acks <-chan *Control, cp *state.Checkpoint) {
	t.Helper()
	blob, err := state.MarshalCheckpoint(cp, w.codec)
	if err != nil {
		t.Fatal(err)
	}
	go w.dispatch(&Control{Kind: MsgDeploy, Seq: 7, Checkpoint: blob, Routing: state.MarshalRouting(state.NewRouting(cp.Instance))})
	select {
	case ack := <-acks:
		if ack.Seq != 7 || ack.Err != "" {
			t.Errorf("deploy acknowledged as %+v", ack)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("MsgDeploy of %s not acknowledged within 2 s while cnt's input is full", cp.Instance)
	}
}

// release passes n tuples through cnt and waits for the deliveries.
func release(t *testing.T, tokens chan struct{}, n int, delivered <-chan struct{}) {
	t.Helper()
	select {
	case <-delivered:
		t.Fatal("the stalled delivery completed before the instance was released")
	default:
	}
	for i := 0; i < n; i++ {
		tokens <- struct{}{}
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("deliveries did not complete once the instance drained")
	}
}

// A delivery waiting for room in a stalled instance's input holds no
// worker lock: the control plane — here a MsgDeploy, which adopts under
// w.mu and acknowledges through it — proceeds around it.
func TestStalledDeliveryHoldsNoWorkerLock(t *testing.T) {
	w, _, tokens, acks, delivered := stalledWorker(t)
	fresh := state.NewInstance(nil)
	deploy(t, w, acks, fresh.BeginCheckpoint(plan.InstanceID{Op: "cnt", Part: 2}).Checkpoint(false))
	release(t, tokens, 3, delivered)
}

// A replacement's downstream replay waits for room on its own
// goroutine, not in the adopt step: a MsgDeploy whose checkpoint retains
// output for the stalled cnt#1 is acknowledged, and the replay arrives
// once cnt drains.
func TestDeployReplayTowardStalledInstanceHoldsNoWorkerLock(t *testing.T) {
	w, eng, tokens, acks, delivered := stalledWorker(t)
	fresh := state.NewInstance(nil)
	cp := fresh.BeginCheckpoint(plan.InstanceID{Op: "pass", Part: 2}).Checkpoint(false)
	cp.Buffer.Append(cnt1, stream.Tuple{TS: 1, Key: 1, Born: 1, Payload: int64(5)})
	deploy(t, w, acks, cp)
	release(t, tokens, 4, delivered)
	for deadline := time.Now().Add(5 * time.Second); eng.SinkCount.Value() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("sink saw %d tuples, want the 3 deliveries and the replayed one", eng.SinkCount.Value())
		}
	}
}

// One socket hop of a full batch — link enqueue, encode, frame write,
// frame read, decode, the receiving node's input queue, processing —
// allocates what the decoder must (one box per payload) plus a fixed
// seven per frame: the two frame headers, the body decoder, the two
// instance-id strings, and the two pool entries that hand the tuple
// slices back (the link writer's after encoding, the node's after
// processing). The emitter and the decoder draw their tuple slices from
// that pool; under the race detector, which drops pool entries at
// random, either draw may allocate. Nothing is rebuilt or copied
// between the emitter's batch and the wire, or between the wire and the
// input queue.
func TestSocketHopAllocations(t *testing.T) {
	const tuples = 256
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "sink")
	src, sink := plan.InstanceID{Op: "src", Part: 1}, plan.InstanceID{Op: "sink", Part: 1}

	recv, err := NewWorker("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Kill()
	eng, err := engine.New(engine.Config{BatchSize: tuples}, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv.mu.Lock()
	recv.setEngine(eng)
	recv.mu.Unlock()
	eng.Start()

	send, err := NewWorker("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Kill()
	send.links = make(map[string]*peerLink) // what handleAssign arms
	send.placement[sink] = recv.Addr()
	out := &linkRouter{w: send}

	// Payloads are boxed once, outside the measurement; values past the
	// runtime's preallocated small integers, so each decoded one is a box.
	payloads := make([]any, tuples)
	for i := range payloads {
		payloads[i] = int64(1000 + i)
	}
	var ts int64
	hop := func() {
		b := state.Batch{From: src, To: sink, Tuples: state.BatchTuples(tuples)}
		for _, p := range payloads {
			ts++
			b.Tuples = append(b.Tuples, stream.Tuple{TS: ts, Key: stream.Key(ts), Born: 1, Payload: p})
		}
		out.Deliver(b)
		for eng.SinkCount.Value() < uint64(ts) {
			time.Sleep(10 * time.Microsecond) // parks, so the one P polls the network
		}
	}
	got := testing.AllocsPerRun(100, hop)
	want := tuples + 7
	if raceEnabled {
		want += 2
	}
	if got > float64(want) {
		t.Errorf("one %d-tuple socket hop allocates %.0f times, want at most %d (payload boxes + 7 per frame)", tuples, got, want)
	}
	if got < tuples {
		t.Errorf("%.0f allocations for %d decoded payloads: the hop was not measured", got, tuples)
	}
	if dups := eng.DupDropped.Value(); dups != 0 {
		t.Errorf("%d tuples dropped as duplicates", dups)
	}
}
