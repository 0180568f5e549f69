package transport

import (
	"testing"
	"time"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// A stalled write surfaces as a credit-stall tick instead of silently
// buffering: a link slower than writeStallAfter bumps the metric, a
// healthy link does not.
func TestWriteStallCountsAsCreditStall(t *testing.T) {
	defer ClearLinkFaults()
	ln, err := ListenWith("127.0.0.1:0", state.GobPayloadCodec{}, Handlers{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	m := &Metrics{}
	p, err := DialWith(ln.Addr(), state.GobPayloadCodec{}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	b := Batch{From: plan.InstanceID{Op: "a"}, To: plan.InstanceID{Op: "b"},
		Tuples: []stream.Tuple{{TS: 1, Key: 7, Payload: "x"}}}
	if err := p.SendBatch(b); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().CreditStalls; got != 0 {
		t.Fatalf("healthy link recorded %d write stalls", got)
	}

	SetLinkFault(ln.Addr(), LinkFault{Delay: 2 * writeStallAfter})
	if err := p.SendBatch(b); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().CreditStalls; got == 0 {
		t.Fatal("stalled write did not surface as a credit stall")
	}
}

// The write deadline is anchored before the stall, so a link slower
// than the configured timeout fails the write rather than blocking the
// sender indefinitely.
func TestWriteDeadlineCoversStall(t *testing.T) {
	defer ClearLinkFaults()
	ln, err := ListenWith("127.0.0.1:0", state.GobPayloadCodec{}, Handlers{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	p, err := Dial(ln.Addr(), state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.WriteTimeout = 40 * time.Millisecond
	SetLinkFault(ln.Addr(), LinkFault{Delay: 150 * time.Millisecond})

	b := Batch{From: plan.InstanceID{Op: "a"}, To: plan.InstanceID{Op: "b"},
		Tuples: []stream.Tuple{{TS: 1, Key: 7, Payload: "x"}}}
	start := time.Now()
	err = p.SendBatch(b)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("write against a stalled-out link reported success")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stalled write blocked %v before failing", elapsed)
	}
}
