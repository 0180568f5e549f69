package state

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
	"seep/internal/wirecodec"
)

// persistTagged has a wire tag; persistUntagged only gob knows, so it
// takes the tag-0 fallback codec.
type persistTagged struct{ A, B int64 }

type persistUntagged struct{ S string }

func init() {
	gob.Register(persistUntagged{})
	_, err := wirecodec.RegisterCodec(persistTagged{},
		func(e *stream.Encoder, v any) error {
			p := v.(persistTagged)
			e.Varint(p.A)
			e.Varint(p.B)
			return nil
		},
		func(d *stream.Decoder) (any, error) {
			p := persistTagged{A: d.Varint(), B: d.Varint()}
			return p, d.Err()
		})
	if err != nil {
		panic(err)
	}
}

// randomPayload draws from every payload class the tuple codec knows:
// builtin scalars, a registered type, an unregistered (fallback) type
// and nil.
func randomPayload(r *rand.Rand) any {
	switch r.Intn(9) {
	case 0:
		return nil
	case 1:
		return r.Int63() - 1<<62
	case 2:
		return "s" + string(rune('a'+r.Intn(26)))
	case 3:
		return r.Float64()
	case 4:
		return r.Intn(2) == 0
	case 5:
		return []byte{byte(r.Intn(256)), 1}
	case 6:
		return r.Intn(1 << 20)
	case 7:
		return persistTagged{A: r.Int63n(1000), B: -r.Int63n(1000)}
	default:
		return persistUntagged{S: "u" + string(rune('a'+r.Intn(26)))}
	}
}

func randomBuffer(r *rand.Rand, targets int) *Buffer {
	b := NewBuffer()
	for t := 0; t < targets; t++ {
		target := plan.InstanceID{Op: "down", Part: t + 1}
		ts := r.Int63n(1000)
		for i, n := 0, r.Intn(40); i < n; i++ {
			ts += 1 + r.Int63n(5)
			b.Append(target, stream.Tuple{TS: ts, Key: stream.Key(r.Uint64()), Born: r.Int63n(1 << 40), Payload: randomPayload(r)})
		}
	}
	return b
}

func randomCheckpoint(r *rand.Rand) *Checkpoint {
	cp := &Checkpoint{
		Instance:   plan.InstanceID{Op: "cnt", Part: 1 + r.Intn(9)},
		Seq:        r.Uint64(),
		Processing: NewProcessing(1 + r.Intn(3)),
		OutClock:   r.Int63(),
	}
	for i := range cp.Processing.TS {
		cp.Processing.TS[i] = r.Int63()
	}
	if r.Intn(2) == 0 { // a store's run, over its cell table
		s := NewStore()
		v, w, m := modelCells(s)
		for i, n := 0, r.Intn(50); i < n; i++ {
			switch k := stream.Key(r.Uint64()); r.Intn(3) {
			case 0:
				v.Set(k, r.Int63())
			case 1:
				w.Set(k, -r.Int63())
			default:
				m.Put(k, "f", r.Int63())
			}
		}
		kv, err := s.TakeCheckpoint()
		if err != nil {
			panic(err)
		}
		cp.Processing.KV = kv
	} else { // a run of opaque records
		kv := map[stream.Key][]byte{}
		for i, n := 0, r.Intn(50); i < n; i++ {
			v := make([]byte, r.Intn(12))
			r.Read(v)
			kv[stream.Key(r.Uint64())] = v
		}
		cp.Processing.KV = runOf(kv)
	}
	if r.Intn(4) > 0 { // a nil buffer encodes as an empty one
		cp.Buffer = randomBuffer(r, r.Intn(3))
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		if cp.Acks == nil {
			cp.Acks = map[plan.InstanceID]int64{}
		}
		cp.Acks[plan.InstanceID{Op: "up", Part: i}] = r.Int63()
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		if cp.Legacy == nil {
			cp.Legacy = map[plan.InstanceID]*Buffer{}
		}
		cp.Legacy[plan.InstanceID{Op: "cnt", Part: 20 + i}] = randomBuffer(r, 1+r.Intn(2))
	}
	return cp
}

// buffersEqual compares live tuples per target; empty targets and a nil
// buffer count as absent.
func buffersEqual(a, b *Buffer) bool {
	if a == nil {
		a = NewBuffer()
	}
	if b == nil {
		b = NewBuffer()
	}
	ta, tb := a.Targets(), b.Targets()
	if !reflect.DeepEqual(ta, tb) {
		return false
	}
	for _, t := range ta {
		if !reflect.DeepEqual(a.Tuples(t), b.Tuples(t)) {
			return false
		}
	}
	return true
}

func legacyEqual(a, b map[plan.InstanceID]*Buffer) bool {
	a, b = CloneLegacy(a), CloneLegacy(b) // drops empty owners
	if len(a) != len(b) {
		return false
	}
	for owner, ba := range a {
		if bb, ok := b[owner]; !ok || !buffersEqual(ba, bb) {
			return false
		}
	}
	return true
}

// TestCheckpointRoundTripProperty: any checkpoint — every payload class,
// own and legacy buffers — survives encode → header → decode, the
// header agrees with the body, and the encoding is deterministic.
func TestCheckpointRoundTripProperty(t *testing.T) {
	codec := GobPayloadCodec{}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		cp := randomCheckpoint(r)
		blob, err := MarshalCheckpoint(cp, codec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := MarshalCheckpoint(cp, codec)
		if err != nil || !bytes.Equal(blob, again) {
			t.Fatalf("seed %d: encoding is not deterministic (%v)", seed, err)
		}
		h, err := DecodeCheckpointHeader(blob)
		if err != nil {
			t.Fatalf("seed %d: header: %v", seed, err)
		}
		got, err := DecodeCheckpoint(stream.NewDecoder(blob), codec)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if h.Instance != cp.Instance || h.Seq != cp.Seq || h.OutClock != cp.OutClock || !reflect.DeepEqual(h.Acks, cp.Acks) {
			t.Fatalf("seed %d: header %+v does not describe %+v", seed, h, cp)
		}
		if got.Instance != cp.Instance || got.Seq != cp.Seq || got.OutClock != cp.OutClock || !reflect.DeepEqual(got.Acks, cp.Acks) {
			t.Fatalf("seed %d: bookkeeping changed: %+v", seed, got)
		}
		if !got.Processing.Equal(cp.Processing) {
			t.Fatalf("seed %d: processing state changed", seed)
		}
		if !buffersEqual(got.Buffer, cp.Buffer) || !legacyEqual(got.Legacy, cp.Legacy) {
			t.Fatalf("seed %d: buffer state changed", seed)
		}
	}
}

// shipDelta is a delta's trip over the wire: the checkpoint encoded and
// decoded, its base and deleted keys travelling beside it, and checked
// as what came off the wire is.
func shipDelta(dc *Checkpoint, codec PayloadCodec) (*Checkpoint, []byte, error) {
	blob, err := MarshalCheckpoint(dc, codec)
	if err != nil {
		return nil, nil, err
	}
	cp, err := DecodeCheckpoint(stream.NewDecoder(blob), codec)
	if err != nil {
		return nil, blob, err
	}
	cp.Base, cp.Deleted = dc.Base, dc.Deleted
	return cp, blob, cp.Validate()
}

func deltaEqual(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if got.Instance != want.Instance || got.OutClock != want.OutClock || !reflect.DeepEqual(got.Acks, want.Acks) {
		t.Fatalf("bookkeeping %v/%d/%v, want %v/%d/%v", got.Instance, got.OutClock, got.Acks, want.Instance, want.OutClock, want.Acks)
	}
	if got.Base != want.Base || got.Seq != want.Seq || !got.TS().Equal(want.TS()) {
		t.Fatalf("base/seq/ts %d/%d/%v, want %d/%d/%v", got.Base, got.Seq, got.TS(), want.Base, want.Seq, want.TS())
	}
	g, w := got.Processing.KV, want.Processing.KV
	if !g.Equal(w) || !slices.Equal(got.Deleted, want.Deleted) {
		t.Fatalf("%d changed, deleted %v; want %d, %v", g.Len(), got.Deleted, w.Len(), want.Deleted)
	}
	if !buffersEqual(got.Buffer, want.Buffer) {
		t.Fatal("buffer state changed")
	}
}

func testDeltaCheckpoint() *Checkpoint {
	buf := NewBuffer()
	buf.Append(plan.InstanceID{Op: "sink", Part: 0},
		stream.Tuple{TS: 9, Key: 3, Born: 1, Payload: "retained"})
	return &Checkpoint{
		Instance: plan.InstanceID{Op: "count", Part: 1},
		Seq:      5,
		Base:     4,
		Deleted:  []stream.Key{1, 11},
		Processing: &Processing{
			KV: runOf(map[stream.Key][]byte{7: []byte("seven"), 2: []byte("two"), 900: {}}),
			TS: stream.TSVector{42, 40},
		},
		Buffer:   buf,
		OutClock: 42,
		Acks:     map[plan.InstanceID]int64{{Op: "src", Part: 0}: 40, {Op: "src", Part: 1}: 39},
	}
}

// TestDeltaCheckpointRoundTrip: a delta ships as a checkpoint and comes
// back whole.
func TestDeltaCheckpointRoundTrip(t *testing.T) {
	want := testDeltaCheckpoint()
	got, _, err := shipDelta(want, StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	deltaEqual(t, got, want)
}

// TestDeltaCheckpointRoundTripProperty: any delta — every payload class
// in its buffer, any changed and deleted keys — survives encode →
// decode → Validate.
func TestDeltaCheckpointRoundTripProperty(t *testing.T) {
	codec := GobPayloadCodec{}
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		cp := randomCheckpoint(r)
		base := 1 + r.Uint64()%1000
		var deleted []stream.Key
		for k, n := stream.Key(r.Intn(5)), r.Intn(6); len(deleted) < n; k += stream.Key(1 + r.Intn(1<<20)) {
			deleted = append(deleted, k)
		}
		want := cp
		want.Seq, want.Base, want.Deleted, want.Legacy = base+1+r.Uint64()%1000, base, deleted, nil
		got, _, err := shipDelta(want, codec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		deltaEqual(t, got, want)
	}
}

// TestDeltaCheckpointDeterministic: map iteration order does not leak
// into the checkpoint a delta travels as.
func TestDeltaCheckpointDeterministic(t *testing.T) {
	dc := testDeltaCheckpoint()
	first, err := MarshalCheckpoint(dc, StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := MarshalCheckpoint(dc, StringPayloadCodec{})
		if err != nil || !bytes.Equal(again, first) {
			t.Fatalf("encode %d differs from the first (%v)", i, err)
		}
	}
}

// TestDeltaCheckpointBadMagic: the retired delta codec's magic ("SEPD")
// is foreign input to the one checkpoint reader.
func TestDeltaCheckpointBadMagic(t *testing.T) {
	_, blob, err := shipDelta(testDeltaCheckpoint(), StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob, 0x53455044)
	if _, err := DecodeCheckpointHeader(blob); err == nil {
		t.Error("header reader accepted the delta codec's magic")
	}
	if cp, err := DecodeCheckpoint(stream.NewDecoder(blob), StringPayloadCodec{}); err == nil || cp != nil {
		t.Errorf("decoder accepted the delta codec's magic: %v, %v", cp, err)
	}
}

// TestDecodeDeltaRejectsMalformedChanged: a delta's changed keys are a
// checkpoint's processing section, so they must strictly ascend like
// every run; a ship that breaks that, or stops mid-record, decodes to
// nothing a delta could be read from.
func TestDecodeDeltaRejectsMalformedChanged(t *testing.T) {
	for name, section := range malformedProcessingSections() {
		blob := checkpointAround(section)
		if cp, err := DecodeCheckpoint(stream.NewDecoder(blob), StringPayloadCodec{}); err == nil || cp != nil {
			t.Errorf("%s: decoded %v, err %v", name, cp, err)
		}
	}
}

// TestDeltaOfRejectsWhatNoSenderShips: Validate refuses a delta whose
// base does not precede it, whose deleted keys are out of order or
// repeated, that carries legacy buffers, or that has no processing
// state, and deleted keys without a base.
func TestDeltaOfRejectsWhatNoSenderShips(t *testing.T) {
	with := func(base uint64, deleted ...stream.Key) *Checkpoint {
		cp := testDeltaCheckpoint()
		cp.Base, cp.Deleted = base, deleted
		return cp
	}
	legacy := with(4)
	legacy.Legacy = map[plan.InstanceID]*Buffer{{Op: "count", Part: 9}: randomBuffer(rand.New(rand.NewSource(1)), 1)}
	cases := []struct {
		name string
		cp   *Checkpoint
	}{
		{"base 0", with(0, 1)},
		{"base at seq", with(5)},
		{"base past seq", with(6)},
		{"unsorted deleted", with(4, 11, 1)},
		{"duplicate deleted", with(4, 1, 1)},
		{"legacy buffers", legacy},
		{"no processing state", &Checkpoint{Instance: legacy.Instance, Seq: 5, Base: 4}},
	}
	for _, c := range cases {
		if err := c.cp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the delta", c.name)
		}
	}
	if err := with(4, 1, 11).Validate(); err != nil {
		t.Fatalf("a valid delta was refused: %v", err)
	}
}

// TestFallbackCodecOnlySeesUntaggedPayloads: tagged payloads never
// touch the PayloadCodec, so swapping it (all WithPayloadCodec can do)
// changes only tag-0 blobs — in checkpoints as on the wire.
func TestFallbackCodecOnlySeesUntaggedPayloads(t *testing.T) {
	cp := &Checkpoint{Instance: plan.InstanceID{Op: "map", Part: 1}, Seq: 1, Processing: NewProcessing(1), Buffer: NewBuffer()}
	to := plan.InstanceID{Op: "cnt", Part: 1}
	for i, p := range []any{int64(7), "x", nil, persistTagged{A: 1}, 3.5, true, []byte{1}, 9} {
		cp.Buffer.Append(to, stream.Tuple{TS: int64(i + 1), Key: stream.Key(i), Payload: p})
	}
	codec := &countingCodec{}
	blob, err := MarshalCheckpoint(cp, codec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(stream.NewDecoder(blob), codec); err != nil {
		t.Fatal(err)
	}
	if codec.enc != 0 || codec.dec != 0 {
		t.Fatalf("tagged payloads reached the fallback codec: %d encodes, %d decodes", codec.enc, codec.dec)
	}
	cp.Buffer.Append(to, stream.Tuple{TS: 100, Payload: persistUntagged{S: "u"}})
	if blob, err = MarshalCheckpoint(cp, codec); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(stream.NewDecoder(blob), codec); err != nil {
		t.Fatal(err)
	}
	if codec.enc != 1 || codec.dec != 1 {
		t.Fatalf("one untagged payload: %d encodes, %d decodes, want 1 and 1", codec.enc, codec.dec)
	}
}

type countingCodec struct{ enc, dec int }

func (c *countingCodec) EncodePayload(p any) ([]byte, error) {
	c.enc++
	return GobPayloadCodec{}.EncodePayload(p)
}

func (c *countingCodec) DecodePayload(b []byte) (any, error) {
	c.dec++
	return GobPayloadCodec{}.DecodePayload(b)
}

// TestOldCheckpointLayoutIsRejected: the previous layouts are foreign
// input now, to the header reader and the decoder alike — a blob under
// the first magic ("SEEP"), and a v2 blob ("SEP2", a cell name in every
// record) as the previous binary wrote it.
func TestOldCheckpointLayoutIsRejected(t *testing.T) {
	blob, err := MarshalCheckpoint(randomCheckpoint(rand.New(rand.NewSource(1))), GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob, 0x53454550) // "SEEP"
	for name, blob := range map[string][]byte{"SEEP": blob, "SEP2": readHex(t, "v2_int64_full.hex")} {
		if _, err := DecodeCheckpointHeader(blob); err == nil {
			t.Errorf("header reader accepted a %s blob", name)
		}
		if cp, err := DecodeCheckpoint(stream.NewDecoder(blob), GobPayloadCodec{}); err == nil || cp != nil {
			t.Errorf("decoder accepted a %s blob: %v, %v", name, cp, err)
		}
	}
}

// bufferedInt64Checkpoint is the shape steady-dist ships twice a second:
// keys int64 cells and buffered tuples with int64 payloads.
func bufferedInt64Checkpoint(keys, buffered int) *Checkpoint {
	cp := &Checkpoint{
		Instance:   plan.InstanceID{Op: "cnt", Part: 1},
		Seq:        1,
		Processing: NewProcessing(1),
		Buffer:     NewBuffer(),
		Acks:       map[plan.InstanceID]int64{{Op: "map", Part: 1}: int64(buffered)},
	}
	kv := make(map[stream.Key][]byte, keys)
	for i := 0; i < keys; i++ {
		kv[stream.Key(stream.Mix64(uint64(i)))] = binary.LittleEndian.AppendUint64(nil, uint64(i))
	}
	cp.Processing.KV = runOf(kv)
	h := cp.Buffer.Handle(plan.InstanceID{Op: "sink", Part: 1})
	for i := 0; i < buffered; i++ {
		h.Append(stream.Tuple{TS: int64(i + 1), Key: stream.Key(stream.Mix64(uint64(i))), Born: int64(i / 50), Payload: int64(i) * 1_000_003})
	}
	return cp
}

// TestEncodeCheckpointAllocsDoNotScaleWithTuples: buffered tuples are
// appended to the one output buffer — no per-tuple encoder, blob or
// copy (the per-tuple gob this replaced cost ≈ 20 allocations each).
func TestEncodeCheckpointAllocsDoNotScaleWithTuples(t *testing.T) {
	allocs := func(buffered int) float64 {
		cp := bufferedInt64Checkpoint(1000, buffered)
		return testing.AllocsPerRun(5, func() {
			if _, err := MarshalCheckpoint(cp, GobPayloadCodec{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(250), allocs(25_000)
	if large > 16 || large > small+2 {
		t.Fatalf("encoding allocates %.0f times with 25k buffered tuples, %.0f with 250: not O(1)", large, small)
	}
}

var goldenDeltas = []string{"int64_delta", "value_map_delta", "spilled_delta"}

var goldens = append([]string{"int64_full", "value_map_full", "spilled_full"}, goldenDeltas...)

// FuzzDecodeCheckpoint: truncated or garbled input is an error — never a
// panic, never a partly filled checkpoint — from both readers, what does
// decode re-encodes, restores and folds as a delta (fuzzCheckpoint). The
// corpus starts from the pinned v3 goldens, random checkpoints, the
// malformed processing sections (overlong uvarints, a mask bit past the
// table, a value overrunning its record, keys out of order among them)
// and a v2 blob.
func FuzzDecodeCheckpoint(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		blob, err := MarshalCheckpoint(randomCheckpoint(rand.New(rand.NewSource(seed))), GobPayloadCodec{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:11])
	}
	f.Add([]byte("not a checkpoint"))
	for _, name := range slices.Sorted(maps.Keys(malformedProcessingSections())) {
		f.Add(checkpointAround(malformedProcessingSections()[name]))
	}
	for _, name := range goldens {
		f.Add(readGolden(f, name))
	}
	f.Add(readHex(f, "v2_int64_full.hex"))
	// A buffer section whose one target spans three chunks.
	spans := &Checkpoint{Instance: inst("cnt", 1), Seq: 1, Processing: NewProcessing(1), Buffer: NewBuffer()}
	for ts := int64(1); ts <= 2*chunkTuples+5; ts++ {
		spans.Buffer.Append(inst("sink", 1), stream.Tuple{TS: ts, Key: stream.Key(ts), Born: ts, Payload: ts})
	}
	blob, err := MarshalCheckpoint(spans, GobPayloadCodec{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(fuzzCheckpoint)
}

// FuzzDecodeDeltaCheckpoint runs FuzzDecodeCheckpoint's property from a
// corpus of damaged deltas: the pinned ones truncated and bit-flipped,
// and a fixture whose buffer and acknowledgements are non-empty.
func FuzzDecodeDeltaCheckpoint(f *testing.F) {
	_, fixture, err := shipDelta(testDeltaCheckpoint(), GobPayloadCodec{})
	if err != nil {
		f.Fatal(err)
	}
	blobs := [][]byte{fixture}
	for _, name := range goldenDeltas {
		blobs = append(blobs, readGolden(f, name))
	}
	for _, blob := range blobs {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		flipped := slices.Clone(blob)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte("SEPDgarbage-that-is-not-a-delta"))
	f.Fuzz(fuzzCheckpoint)
}

// fuzzBase is the stored checkpoint the fuzz targets fold deltas onto.
var fuzzBase = runOf(map[stream.Key][]byte{0: {1}, 2: []byte("two"), 7: {}, 1 << 40: []byte("far"), stream.MaxKey: {9}})

// fuzzCheckpoint is the property both fuzz targets check. The two
// readers agree or fail without a checkpoint; what decodes re-encodes,
// its processing section byte for byte; a run that names cells restores
// into a store of those cells and re-captures as the same run; and, read
// as a delta with a base and deleted keys drawn from the input, it is
// refused by Validate or folds onto fuzzBase into a run whose keys
// strictly ascend and that holds none of the deleted keys.
func fuzzCheckpoint(t *testing.T, b []byte) {
	codec := GobPayloadCodec{}
	h, herr := DecodeCheckpointHeader(b)
	cp, err := DecodeCheckpoint(stream.NewDecoder(b), codec)
	if err != nil {
		if cp != nil {
			t.Fatalf("error %v with a checkpoint installed", err)
		}
		return
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("decoded an invalid checkpoint: %v", err)
	}
	if herr == nil && (h.Instance != cp.Instance || h.Seq != cp.Seq) {
		t.Fatalf("header %+v disagrees with body %v/%d", h, cp.Instance, cp.Seq)
	}
	if _, err := MarshalCheckpoint(cp, codec); err != nil {
		t.Fatalf("decoded checkpoint does not re-encode: %v", err)
	}
	d := stream.NewDecoder(b)
	decodeCheckpointHeader(d)
	section := d.Section()
	e := stream.NewEncoder(section.Remaining())
	cp.Processing.Encode(e)
	if !bytes.Equal(e.Bytes(), section.Raw(section.Remaining())) {
		t.Fatal("the processing section does not re-encode to the bytes it decoded from")
	}
	if kv := cp.Processing.KV; len(kv.cells) > 0 {
		s := NewStore()
		for _, name := range kv.cells {
			NewValue[string](s, name, StringCodec{})
		}
		if err := s.Restore(kv); err != nil {
			t.Fatalf("a decoded run does not restore: %v", err)
		}
		if again, err := s.TakeCheckpoint(); err != nil || !again.Equal(kv) {
			t.Fatalf("a restored run re-captures differently (%v)", err)
		}
	}

	// The first byte picks the base below Seq, 0 (refused) included; the
	// second how many keys are deleted, up to three; the next ones step
	// from key to key, a zero step repeating one (refused too).
	var base uint64
	if cp.Seq > 0 {
		base = uint64(b[0]) % cp.Seq
	}
	var deleted []stream.Key
	var k stream.Key
	for _, step := range b[2:min(len(b), 2+int(b[1]%4))] {
		k += stream.Key(step)
		deleted = append(deleted, k)
	}
	cp.Base, cp.Deleted = base, deleted
	if base == 0 || cp.Validate() != nil {
		return
	}
	folded, err := cp.Fold(&Checkpoint{Processing: &Processing{KV: fuzzBase}})
	if err != nil {
		if cp.Processing.KV.Len() > 0 && slices.Equal(cp.Processing.KV.cells, fuzzBase.cells) {
			t.Fatalf("a delta over the base's cells did not fold: %v", err)
		}
		return
	}
	keys := slices.Collect(folded.Processing.KV.Keys())
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("folded run has key %d after %d", keys[i], keys[i-1])
		}
	}
	for _, d := range deleted {
		if _, ok := folded.Processing.KV.Get(d); ok {
			t.Fatalf("deleted key %d survived the fold", d)
		}
	}
}
