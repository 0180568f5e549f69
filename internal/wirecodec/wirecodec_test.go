package wirecodec_test

import (
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/wirecodec"
)

func init() {
	// The tag-0 fallback path goes through gob, which needs the concrete
	// type registered — exactly what callers relying on the old
	// RegisterPayloadType behaviour already have.
	gob.Register(testUnregistered{})
}

type testPoint struct {
	X, Y int64
}

type testTagged struct {
	Name string
}

type testUnregistered struct {
	V string
}

func encPoint(e *stream.Encoder, v any) error {
	p := v.(testPoint)
	e.Varint(p.X)
	e.Varint(p.Y)
	return nil
}

func decPoint(d *stream.Decoder) (any, error) {
	p := testPoint{X: d.Varint(), Y: d.Varint()}
	return p, d.Err()
}

func TestBuiltinRoundTrip(t *testing.T) {
	fallback := state.GobPayloadCodec{}
	cases := []any{
		"hello",
		"",
		nil,
		[]byte{0x1, 0x2, 0x3},
		int64(-42),
		int(7),
		float64(3.5),
		true,
		false,
	}
	for _, want := range cases {
		e := stream.NewEncoder(32)
		if err := wirecodec.EncodePayload(e, want, fallback); err != nil {
			t.Fatalf("encode %#v: %v", want, err)
		}
		d := stream.NewDecoder(e.Bytes())
		got, err := wirecodec.DecodePayload(d, fallback)
		if err != nil {
			t.Fatalf("decode %#v: %v", want, err)
		}
		switch w := want.(type) {
		case []byte:
			g, ok := got.([]byte)
			if !ok || string(g) != string(w) {
				t.Fatalf("roundtrip %#v: got %#v", want, got)
			}
		default:
			if got != want {
				t.Fatalf("roundtrip %#v: got %#v", want, got)
			}
		}
	}
}

func TestRegisterCodecRoundTrip(t *testing.T) {
	tag, err := wirecodec.RegisterCodec(testPoint{}, encPoint, decPoint)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if tag < wirecodec.FirstUserTag {
		t.Fatalf("assigned tag %d below FirstUserTag", tag)
	}
	fallback := state.GobPayloadCodec{}
	e := stream.NewEncoder(32)
	want := testPoint{X: -5, Y: 1 << 40}
	if err := wirecodec.EncodePayload(e, want, fallback); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if e.Bytes()[0] != tag {
		t.Fatalf("wire tag byte = %d, want %d", e.Bytes()[0], tag)
	}
	got, err := wirecodec.DecodePayload(stream.NewDecoder(e.Bytes()), fallback)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Fatalf("roundtrip: got %#v want %#v", got, want)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	tag1, err := wirecodec.Register(testTagged{})
	if err != nil {
		t.Fatalf("first register: %v", err)
	}
	tag2, err := wirecodec.Register(testTagged{})
	if err == nil {
		t.Fatal("duplicate register: want error, got nil")
	}
	if tag2 != tag1 {
		t.Fatalf("duplicate register returned tag %d, want original %d", tag2, tag1)
	}
}

func TestRegisterNil(t *testing.T) {
	if _, err := wirecodec.Register(nil); err == nil {
		t.Fatal("register nil: want error")
	}
	if _, err := wirecodec.RegisterCodec(testPoint{}, nil, nil); err == nil {
		t.Fatal("register nil codec: want error")
	}
}

func TestUnregisteredFallsBack(t *testing.T) {
	fallback := state.GobPayloadCodec{}
	e := stream.NewEncoder(64)
	want := testUnregistered{V: "via-gob"}
	if err := wirecodec.EncodePayload(e, want, fallback); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if e.Bytes()[0] != wirecodec.TagFallback {
		t.Fatalf("wire tag byte = %d, want fallback 0", e.Bytes()[0])
	}
	got, err := wirecodec.DecodePayload(stream.NewDecoder(e.Bytes()), fallback)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.(testUnregistered) != want {
		t.Fatalf("roundtrip: got %#v want %#v", got, want)
	}
}

func TestFailedCodecRollsBack(t *testing.T) {
	type flaky struct{ S string }
	_, err := wirecodec.RegisterCodec(flaky{},
		func(e *stream.Encoder, v any) error {
			e.Uint64(0xdead) // partial write that must be rolled back
			return errors.New("boom")
		},
		func(d *stream.Decoder) (any, error) { return nil, errors.New("unused") })
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	fallback := state.GobPayloadCodec{}
	e := stream.NewEncoder(64)
	e.Uint8(0x77) // pre-existing content must survive the rollback
	want := flaky{S: "recovered"}
	if err := wirecodec.EncodePayload(e, want, fallback); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if e.Bytes()[0] != 0x77 || e.Bytes()[1] != wirecodec.TagFallback {
		t.Fatalf("rollback failed: prefix bytes % x", e.Bytes()[:2])
	}
	d := stream.NewDecoder(e.Bytes())
	d.Uint8()
	got, err := wirecodec.DecodePayload(d, fallback)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.(flaky) != want {
		t.Fatalf("roundtrip: got %#v want %#v", got, want)
	}
}

func TestDecodeUnknownTag(t *testing.T) {
	e := stream.NewEncoder(4)
	e.Uint8(255)
	_, err := wirecodec.DecodePayload(stream.NewDecoder(e.Bytes()), state.GobPayloadCodec{})
	if err == nil || !strings.Contains(err.Error(), "unknown payload wire tag") {
		t.Fatalf("want unknown-tag error, got %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	fallback := state.GobPayloadCodec{}
	e := stream.NewEncoder(32)
	if err := wirecodec.EncodePayload(e, "a longer string payload", fallback); err != nil {
		t.Fatal(err)
	}
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := stream.NewDecoder(full[:cut])
		v, err := wirecodec.DecodePayload(d, fallback)
		if err == nil && d.Err() == nil && v != "a longer string payload" {
			t.Fatalf("truncated at %d: silently decoded %#v", cut, v)
		}
	}
}

func TestEncodeAnyRejectsUnregistered(t *testing.T) {
	e := stream.NewEncoder(16)
	if err := wirecodec.EncodeAny(e, testUnregistered{V: "x"}); err == nil {
		t.Fatal("EncodeAny of unregistered type: want error")
	}
	if err := wirecodec.EncodeAny(e, "nested-ok"); err != nil {
		t.Fatalf("EncodeAny builtin: %v", err)
	}
	got, err := wirecodec.DecodeAny(stream.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatalf("DecodeAny: %v", err)
	}
	if got != "nested-ok" {
		t.Fatalf("DecodeAny: got %#v", got)
	}
}

func TestEncodeStringAllocFree(t *testing.T) {
	e := stream.NewEncoder(1 << 10)
	// Box once: tuples hold payloads as `any` already, so the hot path
	// never pays the string-to-interface conversion per encode.
	var s any = "steady-state string payload"
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		if err := wirecodec.EncodePayload(e, s, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("string encode allocates %.1f/op, want 0", allocs)
	}
}
