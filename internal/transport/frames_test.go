package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/wirecodec"
)

func randInstance(r *rand.Rand) plan.InstanceID {
	ops := []plan.OpID{"src", "split", "count", "sink", "op-with-a-long-name"}
	return plan.InstanceID{Op: ops[r.Intn(len(ops))], Part: r.Intn(1000) + 1}
}

func randTuple(r *rand.Rand) stream.Tuple {
	payload := make([]byte, r.Intn(64))
	r.Read(payload)
	return stream.Tuple{
		TS:      r.Int63() - r.Int63(),
		Key:     stream.Key(r.Uint64()),
		Born:    r.Int63(),
		Payload: string(payload),
	}
}

// TestBatchFrameRoundTripProperty: 500 random batches survive
// encode → decode byte-exactly.
func TestBatchFrameRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	codec := state.StringPayloadCodec{}
	for i := 0; i < 500; i++ {
		in := Batch{
			From:  randInstance(r),
			To:    randInstance(r),
			Input: r.Intn(8),
		}
		n := r.Intn(50)
		for j := 0; j < n; j++ {
			in.Tuples = append(in.Tuples, randTuple(r))
		}
		e := stream.NewEncoder(64)
		if err := encodeBatch(e, in, codec); err != nil {
			t.Fatalf("encode #%d: %v", i, err)
		}
		out, err := decodeBatch(stream.NewDecoder(e.Bytes()), codec)
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if out.From != in.From || out.To != in.To || out.Input != in.Input {
			t.Fatalf("#%d header mismatch: %+v vs %+v", i, out, in)
		}
		if len(out.Tuples) != len(in.Tuples) {
			t.Fatalf("#%d tuple count %d vs %d", i, len(out.Tuples), len(in.Tuples))
		}
		for j := range in.Tuples {
			if !reflect.DeepEqual(out.Tuples[j], in.Tuples[j]) {
				t.Fatalf("#%d tuple %d: %+v vs %+v", i, j, out.Tuples[j], in.Tuples[j])
			}
		}
	}
}

// TestTupleRunIsOneEncoding: the tuple section of a binary batch frame
// (type 8) and of a checkpoint's buffer section are the same bytes for
// the same tuples — both are wirecodec.EncodeTuples, so a tuple has one
// representation in flight and at rest.
func TestTupleRunIsOneEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	codec := state.GobPayloadCodec{}
	from, to := plan.InstanceID{Op: "map", Part: 1}, plan.InstanceID{Op: "cnt", Part: 2}
	var tuples []stream.Tuple
	ts := int64(100)
	for i, p := range []any{int64(1) << 40, "word", nil, 2.5, true, []byte{9}, 7, uint16(3) /* tag 0 */} {
		ts += r.Int63n(9)
		tuples = append(tuples, stream.Tuple{TS: ts, Key: stream.Key(r.Uint64()), Born: int64(i), Payload: p})
	}

	run := stream.NewEncoder(64)
	if err := wirecodec.EncodeTuples(run, tuples, codec); err != nil {
		t.Fatal(err)
	}

	frame := stream.NewEncoder(64)
	if err := encodeBatch(frame, Batch{From: from, To: to, Input: 1, Tuples: tuples}, codec); err != nil {
		t.Fatal(err)
	}
	header := stream.NewEncoder(64)
	encodeInstanceID(header, from)
	encodeInstanceID(header, to)
	header.Int32(1)
	if got := frame.Bytes()[header.Len():]; !bytes.Equal(got, run.Bytes()) {
		t.Errorf("frame tuple section differs from the tuple run:\n%x\n%x", got, run.Bytes())
	}

	buf := state.NewBuffer()
	for _, tp := range tuples {
		buf.Append(to, tp)
	}
	section := stream.NewEncoder(64)
	if err := state.EncodeBuffer(section, buf, codec); err != nil {
		t.Fatal(err)
	}
	prefix := stream.NewEncoder(16) // [targets:4][instance]
	prefix.Uint32(1)
	encodeInstanceID(prefix, to)
	if got := section.Bytes()[prefix.Len():]; !bytes.Equal(got, run.Bytes()) {
		t.Errorf("buffer section's tuples differ from the tuple run:\n%x\n%x", got, run.Bytes())
	}
}

// TestBatchDecodeNeverPanicsOnCorruptInput flips random bits and
// truncates encoded batches: decoding must fail cleanly, never panic or
// over-allocate.
func TestBatchDecodeNeverPanicsOnCorruptInput(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	codec := state.StringPayloadCodec{}
	for i := 0; i < 2000; i++ {
		in := Batch{From: randInstance(r), To: randInstance(r), Input: r.Intn(4)}
		for j := 0; j < r.Intn(8); j++ {
			in.Tuples = append(in.Tuples, randTuple(r))
		}
		e := stream.NewEncoder(64)
		if err := encodeBatch(e, in, codec); err != nil {
			t.Fatal(err)
		}
		body := append([]byte(nil), e.Bytes()...)
		switch r.Intn(3) {
		case 0: // bit flip
			if len(body) > 0 {
				body[r.Intn(len(body))] ^= 1 << uint(r.Intn(8))
			}
		case 1: // truncate
			body = body[:r.Intn(len(body)+1)]
		case 2: // garbage suffix swap
			for k := 0; k < 4 && len(body) > 4; k++ {
				body[len(body)-1-k] = byte(r.Intn(256))
			}
		}
		// Must not panic; errors are fine, and a "successful" decode of
		// corrupt bytes is acceptable here because the frame layer's CRC
		// rejects corruption before decodeBatch ever runs.
		_, _ = decodeBatch(stream.NewDecoder(body), codec)
	}
}

// FuzzDecodeBatchFrame is the go-native fuzz target for the batch codec
// (runs its seed corpus in normal `go test`; `go test -fuzz` explores).
func FuzzDecodeBatchFrame(f *testing.F) {
	codec := state.StringPayloadCodec{}
	e := stream.NewEncoder(64)
	_ = encodeBatch(e, Batch{
		From: plan.InstanceID{Op: "split", Part: 1},
		To:   plan.InstanceID{Op: "count", Part: 2},
		Tuples: []stream.Tuple{
			{TS: 1, Key: 42, Born: 7, Payload: "hello"},
			{TS: 2, Key: 43, Born: 8, Payload: "world"},
		},
	}, codec)
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := decodeBatch(stream.NewDecoder(body), codec)
		if err != nil {
			return
		}
		// A successful decode must round-trip.
		e := stream.NewEncoder(64)
		if err := encodeBatch(e, b, codec); err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
	})
}

// TestFrameChecksumRejected: a frame whose body was corrupted in flight
// fails with the typed ChecksumError, not a garbage decode.
func TestFrameChecksumRejected(t *testing.T) {
	var m Metrics
	e := stream.NewEncoder(64)
	_ = encodeBatch(e, one(1, "x"), state.StringPayloadCodec{})
	body := e.Bytes()

	frame := make([]byte, frameHeaderLen+len(body))
	frame[0] = ProtocolVersion
	frame[1] = frameBatch
	binary.LittleEndian.PutUint32(frame[2:6], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[6:10], crc32.ChecksumIEEE(body))
	copy(frame[frameHeaderLen:], body)

	// Pristine frame decodes.
	if ft, got, err := readFrame(newByteReader(frame), &m, nil); err != nil || ft != frameBatch || len(got) != len(body) {
		t.Fatalf("pristine frame: type=%d err=%v", ft, err)
	}
	// Corrupt one body byte: typed checksum error.
	bad := append([]byte(nil), frame...)
	bad[frameHeaderLen] ^= 0x40
	_, _, err := readFrame(newByteReader(bad), &m, nil)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt body: err = %v, want *ChecksumError", err)
	}
	// Wrong protocol version: typed version error.
	badv := append([]byte(nil), frame...)
	badv[0] = ProtocolVersion + 1
	_, _, err = readFrame(newByteReader(badv), &m, nil)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("bad version: err = %v, want *VersionError", err)
	}
	if ve.Got != ProtocolVersion+1 || ve.Want != ProtocolVersion {
		t.Errorf("version error fields: %+v", ve)
	}
	// Oversize length: typed size error.
	bads := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bads[2:6], maxFrameBytes+1)
	_, _, err = readFrame(newByteReader(bads), &m, nil)
	var se *FrameSizeError
	if !errors.As(err, &se) {
		t.Fatalf("oversize: err = %v, want *FrameSizeError", err)
	}
	// Only the checksum failure is corruption; the version and the size
	// are refusals of the header.
	if s := m.Snapshot(); s.CorruptFrames != 1 || s.RejectedFrames != 2 {
		t.Errorf("CorruptFrames = %d, RejectedFrames = %d; want 1 and 2", s.CorruptFrames, s.RejectedFrames)
	}
}

type byteReader struct {
	b   []byte
	off int
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, errEOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

var errEOF = errors.New("eof")

// TestTransportMetricsCounted: a short exchange moves the send/receive
// counters on both ends.
func TestTransportMetricsCounted(t *testing.T) {
	var lm, pm Metrics
	l, err := ListenWith("127.0.0.1:0", state.StringPayloadCodec{}, Handlers{OnBatch: func(Batch) {}}, &lm)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p, err := DialWith(l.Addr(), state.StringPayloadCodec{}, &pm)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := Batch{From: inst("split", 1), To: inst("count", 1), Tuples: []stream.Tuple{{TS: 1, Payload: "x"}}}
	for i := 0; i < 10; i++ {
		if err := p.SendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for lm.Snapshot().FramesReceived < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("listener received %d frames", lm.Snapshot().FramesReceived)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ps, ls := pm.Snapshot(), lm.Snapshot()
	if ps.FramesSent != 10 || ps.BytesSent == 0 {
		t.Errorf("peer sent stats: %+v", ps)
	}
	if ls.BytesReceived == 0 || ls.CorruptFrames != 0 {
		t.Errorf("listener stats: %+v", ls)
	}
}
