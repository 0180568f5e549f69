package wirecodec

import (
	"fmt"

	"seep/internal/stream"
)

// minTupleBytes is the smallest record EncodeTuples writes: two one-byte
// varints, the fixed-width key and a payload tag.
const minTupleBytes = 11

// EncodeTuples writes a run of tuples: a uvarint count, then per-tuple
// records of [varint ΔTS][key:8][varint ΔBorn][payload tag + body]. It
// is the one encoding of tuples at rest and in flight — a batch frame's
// tuple section and a checkpoint's buffered output are these bytes. The
// timestamp and birth columns are delta-encoded against the previous
// tuple: runs are in emission order, so consecutive deltas are small and
// usually cost one byte instead of eight. Keys stay fixed-width: they
// are 64-bit hashes, so a varint would average nine-plus bytes AND a
// ten-iteration decode loop per tuple. Payloads dispatch through the tag
// registry; fallback serves tag 0.
func EncodeTuples(e *stream.Encoder, tuples []stream.Tuple, fallback PayloadCodec) error {
	e.Uvarint(uint64(len(tuples)))
	var r TupleRun
	return r.Encode(e, tuples, fallback)
}

// DecodeTuples reads a run written by EncodeTuples into the empty slice
// alloc returns for the run's count — a pooled one, so a receiver does
// not allocate one per batch. The count is checked against the bytes
// left before alloc is called.
func DecodeTuples(d *stream.Decoder, fallback PayloadCodec, alloc func(n int) []stream.Tuple) ([]stream.Tuple, error) {
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()/minTupleBytes) {
		return nil, fmt.Errorf("wirecodec: run of %d tuples exceeds the %d bytes left", n, d.Remaining())
	}
	tuples := alloc(int(n))[:n]
	var prevTS, prevBorn int64
	for i := range tuples {
		t := &tuples[i]
		t.TS = prevTS + d.Varint()
		prevTS = t.TS
		t.Key = d.Key()
		t.Born = prevBorn + d.Varint()
		prevBorn = t.Born
		payload, err := DecodePayload(d, fallback)
		if err != nil {
			return nil, fmt.Errorf("wirecodec: decode payload: %w", err)
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		t.Payload = payload
	}
	return tuples, nil
}

// TupleRun carries a run's delta-coded TS and Born columns across the
// pieces it is written in, so a run held in several slices — an output
// buffer's chunks — is the same bytes as one slice holding them all.
// The zero value starts a run; the count in front is the caller's.
type TupleRun struct{ ts, born int64 }

// Encode appends the records of tuples to the run.
func (r *TupleRun) Encode(e *stream.Encoder, tuples []stream.Tuple, fallback PayloadCodec) error {
	prevTS, prevBorn := r.ts, r.born
	for i := range tuples {
		t := &tuples[i]
		e.Varint(t.TS - prevTS)
		prevTS = t.TS
		e.Key(t.Key)
		e.Varint(t.Born - prevBorn)
		prevBorn = t.Born
		if err := EncodePayload(e, t.Payload, fallback); err != nil {
			return fmt.Errorf("wirecodec: encode payload: %w", err)
		}
	}
	r.ts, r.born = prevTS, prevBorn
	return nil
}
