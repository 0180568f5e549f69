package dist

import (
	"errors"
	"testing"
	"time"

	"seep/internal/core"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/transport"
)

// TestShipOversizeIsAnError: a checkpoint too large for one frame is the
// sender's error, not an orphan. The coordinator is alive, so buffering
// the body would store nothing and trim nothing while reporting success;
// the error instead keeps the engine owing a full checkpoint and aborts
// a final retire to recovery at once.
func TestShipOversizeIsAnError(t *testing.T) {
	codec := state.GobPayloadCodec{}
	l, err := transport.ListenWith("127.0.0.1:0", codec, transport.Handlers{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	coord, err := transport.Dial(l.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	w := &Worker{codec: codec, coord: coord}
	var kv state.RunBuilder
	kv.Append(1, make([]byte, 17<<20))
	cp := &state.Checkpoint{Instance: orphanInst(0), Seq: 5, Processing: &state.Processing{KV: kv.Run()}}
	var tooBig *transport.FrameSizeError
	if err := (&shipSink{w: w}).Ship(cp, nil); !errors.As(err, &tooBig) {
		t.Fatalf("Ship of a %d-byte checkpoint = %v, want a *FrameSizeError", kv.Run().Size(), err)
	}
	if len(w.buffered) != 0 || w.bufferedBytes != 0 {
		t.Errorf("orphan buffer holds %d ships, %d bytes; want none", len(w.buffered), w.bufferedBytes)
	}
	if got := w.lastBarrier.Load(); got != 0 {
		t.Errorf("lastBarrier = %d after a ship that never left, want 0", got)
	}
}

// TestStoreShipRejectsBadDeltas: a delta the coordinator cannot read as
// one — a base that does not precede it, deleted keys out of order or
// repeated, legacy buffers — is reported through Errors and leaves the
// store and the upstream acknowledgements untouched. A delta whose base
// is no longer the stored checkpoint is dropped without an error, and a
// good delta folds, trims, and is not taken for a full checkpoint.
func TestStoreShipRejectsBadDeltas(t *testing.T) {
	codec := state.GobPayloadCodec{}
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "count").Connect("count", "sink")
	mgr, err := core.NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	src, count := mgr.Instances("src")[0], mgr.Instances("count")[0]

	acks := make(chan transport.Ack, 16)
	l, err := transport.ListenWith("127.0.0.1:0", codec, transport.Handlers{OnAck: func(a transport.Ack) { acks <- a }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	peer, err := transport.Dial(l.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	c := &Coordinator{
		codec:     codec,
		mgr:       mgr,
		workers:   map[string]*workerRef{l.Addr(): {addr: l.Addr(), peer: peer, alive: true}},
		placement: map[plan.InstanceID]string{src: l.Addr()},
	}
	ship := func(cp *state.Checkpoint, base uint64, deleted ...stream.Key) *Control {
		t.Helper()
		blob, err := state.MarshalCheckpoint(cp, codec)
		if err != nil {
			t.Fatal(err)
		}
		return &Control{Kind: MsgShip, From: "w", Checkpoint: blob, Base: base, Deleted: deleted}
	}
	run := func(kv map[stream.Key]string) state.Run {
		var b state.RunBuilder
		for _, k := range []stream.Key{1, 2, 3} {
			if v, ok := kv[k]; ok {
				b.Append(k, []byte(v))
			}
		}
		return b.Run()
	}
	// view is the checkpoint a delta on top of seq 3 travels as.
	view := func(seq uint64) *state.Checkpoint {
		return (&state.DeltaCheckpoint{
			Instance: count,
			Delta:    &state.Delta{Seq: seq, Changed: run(map[stream.Key]string{2: "x"}), TS: stream.TSVector{40}},
			Buffer:   state.NewBuffer(),
			Acks:     map[plan.InstanceID]int64{src: 40},
		}).Checkpoint()
	}

	full := &state.Checkpoint{Instance: count, Seq: 3, Buffer: state.NewBuffer(), Acks: map[plan.InstanceID]int64{src: 30},
		Processing: &state.Processing{KV: run(map[stream.Key]string{1: "a", 2: "b", 3: "c"}), TS: stream.TSVector{30}}}
	if inst, ok := c.storeShip(ship(full, 0)); !ok || inst != count {
		t.Fatalf("full checkpoint not stored: %v, %v (errors %v)", inst, ok, c.Errors())
	}
	if a := <-acks; a.TS != 30 {
		t.Fatalf("full checkpoint acknowledged %d, want 30", a.TS)
	}
	stored := func() (uint64, core.ShipStats) {
		cp, _, ok := mgr.Backups().Latest(count)
		if !ok {
			t.Fatal("no stored checkpoint")
		}
		return cp.Seq, mgr.Backups().ShipStats()
	}
	seq0, stats0 := stored()

	merged := state.NewBuffer()
	merged.Append(plan.InstanceID{Op: "sink", Part: 1}, stream.Tuple{TS: 1, Payload: "old"})
	legacy := view(4)
	legacy.Legacy = map[plan.InstanceID]*state.Buffer{{Op: "count", Part: 9}: merged}
	cases := []struct {
		name string
		ctl  *Control
	}{
		{"base 0", ship(view(4), 0, 1)},
		{"base at seq", ship(view(4), 4)},
		{"base past seq", ship(view(4), 5)},
		{"unsorted deleted", ship(view(4), 3, 3, 1)},
		{"duplicate deleted", ship(view(4), 3, 1, 1)},
		{"legacy buffers", ship(legacy, 3)},
	}
	for _, tc := range cases {
		errs := len(c.Errors())
		if _, ok := c.storeShip(tc.ctl); ok {
			t.Errorf("%s: stored as a full checkpoint", tc.name)
		}
		if got := len(c.Errors()); got != errs+1 {
			t.Errorf("%s: %d errors reported, want 1", tc.name, got-errs)
		}
		if seq, stats := stored(); seq != seq0 || stats != stats0 {
			t.Errorf("%s: store moved to seq %d, %+v; want %d, %+v", tc.name, seq, stats, seq0, stats0)
		}
	}

	errs := len(c.Errors())
	if _, ok := c.storeShip(ship(view(6), 5)); ok || len(c.Errors()) != errs {
		t.Errorf("stale base: stored %v, errors %v", ok, c.Errors()[errs:])
	}
	if seq, stats := stored(); seq != seq0 || stats != stats0 {
		t.Errorf("stale base: store moved to seq %d, %+v", seq, stats)
	}

	if _, ok := c.storeShip(ship(view(4), 3, 1)); ok {
		t.Error("a delta satisfied a wait for a full checkpoint")
	}
	cp, _, _ := mgr.Backups().Latest(count)
	_, has1 := cp.Processing.KV.Get(1)
	two, _ := cp.Processing.KV.Get(2)
	if cp.Seq != 4 || has1 || string(two) != "x" || mgr.Backups().ShipStats().Deltas != stats0.Deltas+1 {
		t.Errorf("good delta folded to seq %d, key 1 present %v, key 2 %q", cp.Seq, has1, two)
	}
	// One connection delivers in order: had any rejected delta trimmed,
	// its acknowledgement would arrive before this one.
	select {
	case a := <-acks:
		if a.TS != 40 {
			t.Errorf("first acknowledgement after the full one is %d, want the good delta's 40", a.TS)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the good delta was never acknowledged")
	}
	if len(c.Errors()) != errs {
		t.Errorf("errors after the good delta: %v", c.Errors()[errs:])
	}
}
