package dist

import (
	"reflect"
	"testing"
	"time"

	"seep/internal/engine"
	"seep/internal/plan"
	"seep/internal/state"
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
		ChannelBuffer:      2048,
		BatchSize:          64,
		BatchLinger:        3 * time.Millisecond,
		QueueBound:         512,
		MemoryLimit:        1 << 20,
		Delta:              state.DeltaPolicy{FullEvery: 5, MaxDeltaFraction: 0.4},
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
