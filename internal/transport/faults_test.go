package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// A dropped (partitioned) link black-holes frames — the receiver sees
// nothing — and the sender's heartbeat failure detector declares the
// host down, exactly like a crashed VM.
func TestLinkFaultDropPartitionsAndTripsDetector(t *testing.T) {
	defer ClearLinkFaults()
	var got atomic.Uint64
	ln, err := ListenWith("127.0.0.1:0", state.GobPayloadCodec{}, Handlers{
		OnControl: func([]byte) { got.Add(1) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	p, err := Dial(ln.Addr(), state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SendControl([]byte{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatalf("healthy link delivered %d control frames, want 1", got.Load())
	}

	SetLinkFault(ln.Addr(), LinkFault{Drop: true})
	// Black-holed frames report success to the sender...
	if err := p.SendControl([]byte{2}); err != nil {
		t.Fatalf("partitioned send surfaced an error: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatalf("partitioned link delivered a frame (got %d control frames)", got.Load())
	}

	// ...and the heartbeat detector declares the host down because the
	// probes never arrive.
	down := make(chan struct{})
	p.HeartbeatEvery = 20 * time.Millisecond
	p.MissLimit = 2
	p.OnDown = func() { close(down) }
	p.StartHeartbeat()
	select {
	case <-down:
	case <-time.After(3 * time.Second):
		t.Fatal("partitioned peer never declared down")
	}

	// Healing restores delivery for a fresh connection.
	ClearLinkFault(ln.Addr())
	p2, err := Dial(ln.Addr(), state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.SendControl([]byte{3}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for got.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() != 2 {
		t.Fatalf("healed link delivered %d control frames, want 2", got.Load())
	}
}

// A slow link delays frames but still delivers them, and heartbeat
// replies keep flowing, so the host is degraded — not declared down.
func TestLinkFaultDelayDelivers(t *testing.T) {
	defer ClearLinkFaults()
	batches := make(chan Batch, 1)
	ln, err := ListenWith("127.0.0.1:0", state.GobPayloadCodec{}, Handlers{
		OnBatch: func(b Batch) { batches <- b },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	SetLinkFault(ln.Addr(), LinkFault{Delay: 50 * time.Millisecond})
	p, err := Dial(ln.Addr(), state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	downed := make(chan struct{})
	p.HeartbeatEvery = 100 * time.Millisecond
	p.OnDown = func() { close(downed) }
	p.StartHeartbeat()

	start := time.Now()
	b := Batch{From: plan.InstanceID{Op: "a"}, To: plan.InstanceID{Op: "b"},
		Tuples: []stream.Tuple{{TS: 1, Key: 7, Payload: "x"}}}
	if err := p.SendBatch(b); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-batches:
		if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
			t.Errorf("slow link delivered in %v, want >= 50ms", elapsed)
		}
		if len(got.Tuples) != 1 || got.Tuples[0].Key != 7 {
			t.Errorf("batch corrupted across slow link: %+v", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("slow link never delivered the batch")
	}
	select {
	case <-downed:
		t.Fatal("slow link was declared down")
	case <-time.After(400 * time.Millisecond):
	}
}
