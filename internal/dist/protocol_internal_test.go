package dist

import (
	"reflect"
	"testing"
	"time"

	"seep/internal/control"
	"seep/internal/controlplane"
	"seep/internal/core"
	"seep/internal/engine"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// TestManagerBooksAssignRoundTrip: MsgAssign carries the one
// engine.Config value. Every setting arrives as sent, and the two wiring
// fields — Hosted (a func) and Backup (an interface), which only the
// receiving worker fills — are nil on arrival and add nothing to the
// message.
func TestManagerBooksAssignRoundTrip(t *testing.T) {
	sent := engine.Config{
		CheckpointInterval: 250 * time.Millisecond,
		TimerInterval:      75 * time.Millisecond,
		BatchSize:          64,
		BatchLinger:        3 * time.Millisecond,
		QueueBound:         512,
		MemoryLimit:        1 << 20,
		Incremental:        true,
	}
	// Every setting is set above, so a field added to engine.Config fails
	// here until it is covered too.
	v := reflect.ValueOf(sent)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if wiring := name == "Hosted" || name == "Backup"; wiring != v.Field(i).IsZero() {
			t.Fatalf("engine.Config.%s: zero = %v; settings must be set and wiring unset in this test", name, v.Field(i).IsZero())
		}
	}

	roundTrip := func(cfg engine.Config) (*Control, int) {
		t.Helper()
		body, err := encodeControl(&Control{Kind: MsgAssign, Seq: 7, Topology: "wordcount", Engine: cfg})
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeControl(body)
		if err != nil {
			t.Fatal(err)
		}
		return got, len(body)
	}
	got, size := roundTrip(sent)
	if !reflect.DeepEqual(got.Engine, sent) {
		t.Errorf("Engine arrived as %+v, sent %+v", got.Engine, sent)
	}
	if got.Kind != MsgAssign || got.Seq != 7 || got.Topology != "wordcount" {
		t.Errorf("envelope = %+v", got)
	}

	// A func field never travels: the same message with Hosted wired is
	// byte-for-byte as long, and still arrives unwired.
	wired := sent
	wired.Hosted = func(plan.InstanceID) bool { return true }
	gotWired, sizeWired := roundTrip(wired)
	if sizeWired != size {
		t.Errorf("wiring Hosted changed the message size: %d → %d bytes", size, sizeWired)
	}
	if gotWired.Engine.Hosted != nil || gotWired.Engine.Backup != nil {
		t.Error("wiring fields arrived non-nil")
	}
	// The settings themselves are all the config costs: a zero config is
	// smaller by no more than their encoded values.
	if _, sizeZero := roundTrip(engine.Config{}); size-sizeZero > 64 {
		t.Errorf("eight settings cost %d bytes on the wire", size-sizeZero)
	}
}

// FuzzDecodeControl: a control message read off the network either
// fails to decode or decodes to one that re-encodes, and the blobs it
// carries — a routing, a checkpoint — decode or fail without a panic,
// as the worker and the coordinator read them.
func FuzzDecodeControl(f *testing.F) {
	a, b := plan.InstanceID{Op: "cnt", Part: 1}, plan.InstanceID{Op: "cnt", Part: 2}
	placed := []controlplane.Placement{{Inst: a, Addr: "127.0.0.1:7001"}, {Inst: b, Addr: "127.0.0.1:7002"}}
	routing := state.MarshalRouting(state.NewRouting(a))
	for _, c := range []*Control{
		{Kind: MsgAssign, Seq: 1, From: "coord", Topology: "wc", CoordAddr: "127.0.0.1:7000", Placements: placed, Engine: engine.Config{BatchSize: 64}, ReportEveryMillis: 100, StandbyAddr: "127.0.0.1:7100", DetectMillis: 500},
		{Kind: MsgStart, Seq: 2, CoordNow: 1234},
		{Kind: MsgStop, Seq: 3},
		{Kind: MsgReroute, Seq: 4, Op: "cnt", Routing: routing, New: placed[1:], Victims: []plan.InstanceID{a}, Inherit: []core.Inherit{{Old: a, New: b}}, TrimAcks: []core.Trim{{Up: a, Owner: b, TS: 9}}},
		{Kind: MsgDeploy, Seq: 5, Op: "cnt", New: placed[:1], Checkpoint: []byte{1, 2, 3}},
		{Kind: MsgRetire, Seq: 6, Victims: []plan.InstanceID{a, b}, Final: true},
		{Kind: MsgDie},
		{Kind: MsgAck, Seq: 7, Err: "refused", Replayed: 12},
		{Kind: MsgReport, From: "w1", Reports: []control.Report{{Inst: a, Util: 0.75}}, Stats: WorkerStats{SinkTuples: 10, DupDropped: 20}},
		{Kind: MsgReattach, Seq: 8, From: "w1", Hosted: []plan.InstanceID{a}, Running: true},
		{Kind: MsgResume, Seq: 9, StandbyAddr: "127.0.0.1:7100", DetectMillis: 500},
		{Kind: MsgTrim, TrimAcks: []core.Trim{{Up: a, Owner: b, TS: 40}}},
		{Kind: MsgBarrier, Seq: 10, Victims: []plan.InstanceID{b}},
	} {
		body, err := encodeControl(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	st := state.NewStore()
	state.NewValue[int64](st, "n", state.Int64Codec{}).Set(7, 42)
	kv, err := st.TakeCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	cp := &state.Checkpoint{Instance: a, Seq: 1, Processing: &state.Processing{KV: kv}, Buffer: state.NewBuffer()}
	cp.Buffer.Append(b, stream.Tuple{TS: 1, Key: 7, Born: 1, Payload: int64(5)})
	ship, err := encodeShip(&Control{Kind: MsgShip, From: "w1", Base: 1, Deleted: []stream.Key{3, 4}}, cp, state.GobPayloadCodec{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ship)
	f.Add(ship[:len(ship)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := decodeControl(body)
		if err != nil {
			return
		}
		if len(c.Routing) > 0 {
			_, _ = decodeRouting(c.Routing)
		}
		if len(c.Checkpoint) > 0 {
			_, _ = state.DecodeCheckpointHeader(c.Checkpoint)
			_, _ = state.DecodeCheckpoint(stream.NewDecoder(c.Checkpoint), state.GobPayloadCodec{})
		}
		if _, err := encodeControl(c); err != nil {
			t.Fatalf("a decoded %v message fails to re-encode: %v", c.Kind, err)
		}
	})
}
