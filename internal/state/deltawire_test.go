package state

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
)

func testDeltaCheckpoint() *DeltaCheckpoint {
	buf := NewBuffer()
	buf.Append(plan.InstanceID{Op: "sink", Part: 0},
		stream.Tuple{TS: 9, Key: 3, Born: 1, Payload: "retained"})
	return &DeltaCheckpoint{
		Instance: plan.InstanceID{Op: "count", Part: 1},
		Delta: &Delta{
			Base: 4,
			Seq:  5,
			Changed: runOf(map[stream.Key][]byte{
				7:   []byte("seven"),
				2:   []byte("two"),
				900: {},
			}),
			Deleted: []stream.Key{11, 1},
			TS:      stream.TSVector{42, 40},
		},
		Buffer:   buf,
		OutClock: 42,
		Acks: map[plan.InstanceID]int64{
			{Op: "src", Part: 0}: 40,
			{Op: "src", Part: 1}: 39,
		},
	}
}

func deltaEqual(t *testing.T, got, want *DeltaCheckpoint) {
	t.Helper()
	if got.Instance != want.Instance {
		t.Fatalf("instance %v want %v", got.Instance, want.Instance)
	}
	if got.Delta.Base != want.Delta.Base || got.Delta.Seq != want.Delta.Seq {
		t.Fatalf("seq %d/%d want %d/%d", got.Delta.Base, got.Delta.Seq, want.Delta.Base, want.Delta.Seq)
	}
	if got.Delta.Changed.Len() != want.Delta.Changed.Len() {
		t.Fatalf("changed %d want %d", got.Delta.Changed.Len(), want.Delta.Changed.Len())
	}
	for k, v := range want.Delta.Changed.All() {
		if g, _ := got.Delta.Changed.Get(k); !bytes.Equal(g, v) {
			t.Fatalf("changed[%d] = %q want %q", k, g, v)
		}
	}
	if len(got.Delta.Deleted) != len(want.Delta.Deleted) {
		t.Fatalf("deleted %v want %v", got.Delta.Deleted, want.Delta.Deleted)
	}
	if got.OutClock != want.OutClock {
		t.Fatalf("outclock %d want %d", got.OutClock, want.OutClock)
	}
	if len(got.Acks) != len(want.Acks) {
		t.Fatalf("acks %v want %v", got.Acks, want.Acks)
	}
	for id, ts := range want.Acks {
		if got.Acks[id] != ts {
			t.Fatalf("ack[%v] = %d want %d", id, got.Acks[id], ts)
		}
	}
	if got.Buffer.Len() != want.Buffer.Len() {
		t.Fatalf("buffer len %d want %d", got.Buffer.Len(), want.Buffer.Len())
	}
}

func TestDeltaCheckpointRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		want := testDeltaCheckpoint()
		e := stream.NewEncoder(256)
		if err := EncodeDeltaCheckpoint(e, want, StringPayloadCodec{}, compress); err != nil {
			t.Fatalf("compress=%v encode: %v", compress, err)
		}
		got, err := DecodeDeltaCheckpoint(stream.NewDecoder(e.Bytes()), StringPayloadCodec{})
		if err != nil {
			t.Fatalf("compress=%v decode: %v", compress, err)
		}
		deltaEqual(t, got, want)
	}
}

func TestDeltaCheckpointDeterministic(t *testing.T) {
	// Map iteration order must not leak into the encoding: repeated
	// encodes of the same value are byte-identical.
	want := testDeltaCheckpoint()
	var first []byte
	for i := 0; i < 20; i++ {
		e := stream.NewEncoder(256)
		if err := EncodeDeltaCheckpoint(e, want, StringPayloadCodec{}, false); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]byte(nil), e.Bytes()...)
		} else if !bytes.Equal(first, e.Bytes()) {
			t.Fatalf("encode %d differs from first encode", i)
		}
	}
}

func TestDeltaCheckpointCompressionShrinks(t *testing.T) {
	dc := testDeltaCheckpoint()
	// Highly compressible state: one repeated byte pattern per key.
	var changed RunBuilder
	for k := stream.Key(0); k < 200; k++ {
		changed.Append(k, bytes.Repeat([]byte("abcdefgh"), 32))
	}
	dc.Delta.Changed = changed.Run()
	raw := stream.NewEncoder(1 << 10)
	if err := EncodeDeltaCheckpoint(raw, dc, StringPayloadCodec{}, false); err != nil {
		t.Fatal(err)
	}
	zip := stream.NewEncoder(1 << 10)
	if err := EncodeDeltaCheckpoint(zip, dc, StringPayloadCodec{}, true); err != nil {
		t.Fatal(err)
	}
	if zip.Len() >= raw.Len() {
		t.Fatalf("compressed %d bytes, raw %d", zip.Len(), raw.Len())
	}
	got, err := DecodeDeltaCheckpoint(stream.NewDecoder(zip.Bytes()), StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta.Changed.Len() != 200 {
		t.Fatalf("changed %d want 200", got.Delta.Changed.Len())
	}
}

func TestDeltaCheckpointBadMagic(t *testing.T) {
	e := stream.NewEncoder(16)
	e.Uint32(0xdeadbeef)
	e.Uint8(deltaRaw)
	e.BytesV(nil)
	_, err := DecodeDeltaCheckpoint(stream.NewDecoder(e.Bytes()), StringPayloadCodec{})
	if err == nil || !strings.Contains(err.Error(), "not a delta checkpoint") {
		t.Fatalf("want magic error, got %v", err)
	}
}

// FuzzDecodeDeltaCheckpoint hardens the delta frame decoder the same way
// FuzzJournalReplay hardens the control-plane journal: truncated,
// bit-flipped and garbage bodies must return errors, never panic or
// hang.
func FuzzDecodeDeltaCheckpoint(f *testing.F) {
	for _, compress := range []bool{false, true} {
		e := stream.NewEncoder(256)
		if err := EncodeDeltaCheckpoint(e, testDeltaCheckpoint(), StringPayloadCodec{}, compress); err != nil {
			f.Fatal(err)
		}
		full := e.Bytes()
		f.Add(append([]byte(nil), full...))
		f.Add(append([]byte(nil), full[:len(full)/2]...)) // truncated
		flipped := append([]byte(nil), full...)
		flipped[len(flipped)/2] ^= 0x40 // corrupt interior byte
		f.Add(flipped)
	}
	f.Add([]byte("SEPDgarbage-that-is-not-a-delta"))
	f.Add([]byte{0x44, 0x50, 0x45, 0x53, deltaFlate, 0xff, 0x01, 0x02}) // bogus flate stream
	for _, name := range slices.Sorted(maps.Keys(malformedDeltaFrames())) {
		f.Add(malformedDeltaFrames()[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dc, err := DecodeDeltaCheckpoint(stream.NewDecoder(data), StringPayloadCodec{})
		if err == nil && (dc == nil || dc.Delta == nil) {
			t.Fatal("nil delta checkpoint without error")
		}
		if err != nil && dc != nil {
			t.Fatalf("error %v with a delta checkpoint returned", err)
		}
	})
}

// malformedDeltaFrames returns raw delta frames whose changed entries
// frame correctly but are unsorted, repeat a key, or stop mid-record.
func malformedDeltaFrames() map[string][]byte {
	frame := func(nChanged int, entries ...[]byte) []byte {
		body := stream.NewEncoder(64)
		encodeInstanceID(body, plan.InstanceID{Op: "count", Part: 1})
		body.Uint64(4)
		body.Uint64(5)
		body.TSVector(stream.TSVector{42})
		body.Uint32(uint32(nChanged))
		for _, en := range entries {
			body.Raw(en)
		}
		body.Uint32(0) // deleted
		body.Uint32(0) // buffer targets
		body.Int64(42)
		body.Uint32(0) // acks
		e := stream.NewEncoder(64)
		e.Uint32(deltaMagic)
		e.Uint8(deltaRaw)
		e.BytesV(body.Bytes())
		return e.Bytes()
	}
	entry := func(k stream.Key, v string) []byte {
		e := stream.NewEncoder(16)
		e.Uvarint(uint64(k))
		e.BytesV([]byte(v))
		return e.Bytes()
	}
	return map[string][]byte{
		"unsorted":         frame(2, entry(700, "a"), entry(3, "b")),
		"duplicate key":    frame(2, entry(5, "a"), entry(5, "b")),
		"truncated record": frame(2, entry(1, "a"), append(entry(2, "b")[:1], 200, 'b')),
	}
}

// TestDecodeDeltaRejectsMalformedChanged: the changed entries of a delta
// must strictly ascend, like every run; a frame that breaks that, or
// stops mid-record, is an error and yields no delta.
func TestDecodeDeltaRejectsMalformedChanged(t *testing.T) {
	for name, frame := range malformedDeltaFrames() {
		if dc, err := DecodeDeltaCheckpoint(stream.NewDecoder(frame), StringPayloadCodec{}); err == nil || dc != nil {
			t.Errorf("%s: decoded %v, err %v", name, dc, err)
		}
	}
}
