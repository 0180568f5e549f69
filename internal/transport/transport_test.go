package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

func inst(op string, part int) plan.InstanceID {
	return plan.InstanceID{Op: plan.OpID(op), Part: part}
}

// one is a one-tuple batch on the split#1 → count#1 route.
func one(ts int64, payload string) Batch {
	return Batch{
		From:   inst("split", 1),
		To:     inst("count", 1),
		Input:  0,
		Tuples: []stream.Tuple{{TS: ts, Key: stream.KeyOfString(payload), Born: ts * 10, Payload: payload}},
	}
}

// listen starts a listener that hands every batch to onBatch (nil
// drops them).
func listen(t *testing.T, onBatch func(Batch)) *Listener {
	t.Helper()
	l, err := ListenWith("127.0.0.1:0", state.StringPayloadCodec{}, Handlers{OnBatch: onBatch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBatchRoundTripOverTCP(t *testing.T) {
	var mu sync.Mutex
	var got []Batch
	l := listen(t, func(b Batch) {
		mu.Lock()
		got = append(got, b)
		mu.Unlock()
	})
	defer l.Close()

	p, err := Dial(l.Addr(), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 500
	for i := int64(1); i <= n; i++ {
		if err := p.SendBatch(one(i, "hello")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		cnt := len(got)
		mu.Unlock()
		if cnt == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", cnt, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	// FIFO per connection, fields intact.
	for i, b := range got {
		if len(b.Tuples) != 1 || b.Tuples[0].TS != int64(i+1) {
			t.Fatalf("out of order at %d: %v", i, b.Tuples)
		}
	}
	first := got[0]
	if first.From != inst("split", 1) || first.To != inst("count", 1) {
		t.Errorf("addressing lost: %+v", first)
	}
	if tu := first.Tuples[0]; tu.Payload != "hello" || tu.Born != 10 {
		t.Errorf("tuple fields lost: %+v", tu)
	}
	if p.Sent() != n {
		t.Errorf("Sent = %d", p.Sent())
	}
}

func TestHeartbeatKeepsPeerAlive(t *testing.T) {
	l := listen(t, nil)
	defer l.Close()
	p, err := Dial(l.Addr(), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.HeartbeatEvery = 20 * time.Millisecond
	p.MissLimit = 3
	downs := make(chan struct{}, 1)
	p.OnDown = func() { downs <- struct{}{} }
	p.StartHeartbeat()
	select {
	case <-downs:
		t.Fatal("healthy peer declared down")
	case <-time.After(400 * time.Millisecond):
	}
	if p.Down() {
		t.Fatal("Down() on healthy peer")
	}
}

func TestFailureDetectorFiresOnDeadPeer(t *testing.T) {
	l := listen(t, nil)
	p, err := Dial(l.Addr(), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.HeartbeatEvery = 20 * time.Millisecond
	p.MissLimit = 3
	downs := make(chan struct{}, 1)
	p.OnDown = func() { downs <- struct{}{} }
	p.StartHeartbeat()

	// Crash-stop the remote VM.
	l.Close()

	select {
	case <-downs:
	case <-time.After(3 * time.Second):
		t.Fatal("failure detector never fired")
	}
	if !p.Down() {
		t.Error("Down() = false after detection")
	}
	if err := p.SendBatch(one(1, "late")); err == nil {
		t.Error("send to downed peer succeeded")
	}
}

// TestPipelineOverTCP runs split → count across a real TCP hop: the
// receiving side hosts a WordCounter with per-upstream duplicate
// detection, and a retransmission of the same timestamped tuples (the
// replay path after recovery) does not double-count.
func TestPipelineOverTCP(t *testing.T) {
	counter := operator.NewWordCounter(0)
	acks := make(map[plan.InstanceID]int64)
	var mu sync.Mutex
	var processed int
	l := listen(t, func(b Batch) {
		mu.Lock()
		defer mu.Unlock()
		for _, tu := range b.Tuples {
			if tu.TS <= acks[b.From] {
				continue // duplicate from replay
			}
			acks[b.From] = tu.TS
			counter.OnTuple(operator.Context{Input: b.Input}, tu, func(stream.Key, any) {})
			processed++
		}
	})
	defer l.Close()

	p, err := Dial(l.Addr(), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	words := []string{"state", "stream", "state", "replay", "state"}
	send := func() {
		for i, w := range words {
			if err := p.SendBatch(one(int64(i+1), w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	send()
	send() // replay: identical timestamps must be deduplicated

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := processed
		mu.Unlock()
		if done == len(words) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("processed %d", done)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Drain any stragglers, then assert dedup held.
	time.Sleep(50 * time.Millisecond)
	if got := counter.Count("state"); got != 3 {
		t.Errorf("Count(state) = %d, want 3 (replay deduplicated)", got)
	}
	if got := counter.Count("replay"); got != 1 {
		t.Errorf("Count(replay) = %d, want 1", got)
	}
}

func TestListenerRejectsOversizeFrame(t *testing.T) {
	l := listen(t, nil)
	defer l.Close()
	p, err := Dial(l.Addr(), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Hand-craft a frame with an absurd length; the listener must drop
	// the connection rather than allocate.
	p.mu.Lock()
	_ = writeFrame(p.w, nil, frameControl, make([]byte, 16))
	// Corrupt: huge declared length with no body.
	_, _ = p.w.Write([]byte{ProtocolVersion, frameControl, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	_ = p.w.Flush()
	p.mu.Unlock()
	// The listener should survive (no panic, no OOM); a fresh connection
	// still works.
	time.Sleep(50 * time.Millisecond)
	p2, err := Dial(l.Addr(), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.SendBatch(one(1, "ok")); err != nil {
		t.Errorf("fresh connection send: %v", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", state.StringPayloadCodec{}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// TestRetiredFrameTypesDropConnection: types 1 (one tuple per frame), 3
// (gob batch), 4 (acknowledgement trim), 6 (checkpoint barrier), 7 (link
// credit grant) and 9 (delta checkpoint) left the protocol. A
// well-formed frame of any of them closes the connection like any
// unknown type, reaches no handler, and leaves the listener serving the
// next connection.
func TestRetiredFrameTypesDropConnection(t *testing.T) {
	batches := make(chan Batch, 4)
	stray := func(name string) { t.Errorf("retired frame reached %s", name) }
	l, err := ListenWith("127.0.0.1:0", state.StringPayloadCodec{}, Handlers{
		OnBatch:   func(b Batch) { batches <- b },
		OnControl: func([]byte) { stray("OnControl") },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The body is a valid batch — and its leading fields are all a credit
	// grant's, a trim's or a barrier's decoder read — so a listener that
	// still decoded a retired type would deliver it.
	e := stream.NewEncoder(64)
	if err := encodeBatch(e, one(1, "stale"), state.StringPayloadCodec{}); err != nil {
		t.Fatal(err)
	}
	for _, retired := range []uint8{1, 3, 4, 6, 7, 9} {
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, nil, retired, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("type %d: read = %v, want the connection closed (EOF)", retired, err)
		}
		conn.Close()
	}
	p, err := Dial(l.Addr(), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SendBatch(one(2, "fresh")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-batches:
		if b.Tuples[0].Payload != "fresh" {
			t.Errorf("a retired frame was delivered: %+v", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("listener stopped serving after a retired frame")
	}
}

// TestOversizeFrameIsRefusedBySender: a body past the frame cap never
// reaches the wire — the receiver could only count its header as a
// corrupt frame and drop the connection — so the sender gets the typed
// error and the connection keeps serving.
func TestOversizeFrameIsRefusedBySender(t *testing.T) {
	batches := make(chan Batch, 1)
	lm, pm := &Metrics{}, &Metrics{}
	l, err := ListenWith("127.0.0.1:0", state.StringPayloadCodec{}, Handlers{
		OnBatch:   func(b Batch) { batches <- b },
		OnControl: func([]byte) { t.Error("an oversize control frame was delivered") },
	}, lm)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p, err := DialWith(l.Addr(), state.StringPayloadCodec{}, pm)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var tooBig *FrameSizeError
	if err := p.SendControl(make([]byte, maxFrameBytes+1)); !errors.As(err, &tooBig) {
		t.Fatalf("SendControl of %d bytes = %v, want a *FrameSizeError", maxFrameBytes+1, err)
	}
	if err := p.SendBatch(one(1, "after")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-batches:
	case <-time.After(2 * time.Second):
		t.Fatal("the connection stopped serving after an oversize send")
	}
	if c, r := lm.Snapshot().CorruptFrames, pm.Snapshot().Reconnects; c != 0 || r != 0 {
		t.Errorf("%d corrupt frames at the listener, %d reconnects at the sender, want none", c, r)
	}
}

// TestControlBodyBelongsToHandler: a control body is read into a buffer
// of its own, which its handler keeps. The next frame does not overwrite
// a kept body, and a large body the handler dropped is not pinned by the
// connection as its read scratch.
func TestControlBodyBelongsToHandler(t *testing.T) {
	bodies := make(chan []byte, 1)
	l, err := ListenWith("127.0.0.1:0", state.StringPayloadCodec{}, Handlers{OnControl: func(b []byte) { bodies <- b }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p, err := Dial(l.Addr(), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	send := func(n int, c byte) {
		t.Helper()
		if err := p.SendControl(bytes.Repeat([]byte{c}, n)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() []byte {
		t.Helper()
		select {
		case b := <-bodies:
			return b
		case <-time.After(5 * time.Second):
			t.Fatal("no control body arrived")
			return nil
		}
	}

	send(1<<10, 'a')
	kept := recv()
	send(1<<10, 'b')
	recv()
	if !bytes.Equal(kept, bytes.Repeat([]byte{'a'}, 1<<10)) {
		t.Error("the next frame overwrote a control body its handler kept")
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	send(8<<20, 'c')
	if n := len(recv()); n != 8<<20 {
		t.Fatalf("received %d bytes, sent %d", n, 8<<20)
	}
	send(16, 'd') // the connection has read past the large frame and stays open
	recv()
	if after := heap(); after > before+1<<20 {
		t.Errorf("the listener retains %d KiB after its handler dropped an 8 MiB control body, want < 1 MiB", (after-before)>>10)
	}
}
