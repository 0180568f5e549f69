package state

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"

	"seep/internal/stream"
)

// deltaMagic guards delta-checkpoint frames against foreign input.
const deltaMagic = uint32(0x53455044) // "SEPD"

// Compression flags for a delta-checkpoint wire body.
const (
	deltaRaw   = uint8(0)
	deltaFlate = uint8(1)
)

// maxDeltaBodyBytes bounds decompression of a delta-checkpoint body so a
// hostile or corrupt frame cannot expand without limit (64 MiB, well
// above anything a 16 MiB frame legitimately inflates to).
const maxDeltaBodyBytes = 64 << 20

// EncodeDeltaCheckpoint serialises an incremental checkpoint for the
// wire: [magic][flag][uvarint-length body], where the body is the delta
// plus the refreshed bookkeeping (buffer, output clock, acks) and flag
// says whether it is stored raw or flate-compressed. Compression is
// attempted only when compress is set and kept only when it actually
// shrinks the body, so a decoder never pays inflation for
// incompressible state. Changed keys are a sorted run and deleted keys
// are written in sorted order, making the encoding byte-deterministic
// for a given value.
func EncodeDeltaCheckpoint(e *stream.Encoder, dc *DeltaCheckpoint, codec PayloadCodec, compress bool) error {
	if dc == nil || dc.Delta == nil {
		return fmt.Errorf("state: delta checkpoint missing delta")
	}
	inner := stream.NewEncoder(dc.Size() + 256)
	if err := encodeDeltaBody(inner, dc, codec); err != nil {
		return err
	}
	e.Uint32(deltaMagic)
	if compress {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return fmt.Errorf("state: delta checkpoint deflate: %w", err)
		}
		if _, err := zw.Write(inner.Bytes()); err != nil {
			return fmt.Errorf("state: delta checkpoint deflate: %w", err)
		}
		if err := zw.Close(); err != nil {
			return fmt.Errorf("state: delta checkpoint deflate: %w", err)
		}
		if buf.Len() < inner.Len() {
			e.Uint8(deltaFlate)
			e.BytesV(buf.Bytes())
			return nil
		}
	}
	e.Uint8(deltaRaw)
	e.BytesV(inner.Bytes())
	return nil
}

// DecodeDeltaCheckpoint reads a delta checkpoint written by
// EncodeDeltaCheckpoint, validating the magic and bounding
// decompression before any field is interpreted.
func DecodeDeltaCheckpoint(d *stream.Decoder, codec PayloadCodec) (*DeltaCheckpoint, error) {
	if magic := d.Uint32(); magic != deltaMagic {
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("state: not a delta checkpoint (magic %x)", magic)
	}
	flag := d.Uint8()
	body := d.BytesV()
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch flag {
	case deltaRaw:
	case deltaFlate:
		zr := flate.NewReader(bytes.NewReader(body))
		raw, err := io.ReadAll(io.LimitReader(zr, maxDeltaBodyBytes+1))
		zr.Close()
		if err != nil {
			return nil, fmt.Errorf("state: delta checkpoint inflate: %w", err)
		}
		if len(raw) > maxDeltaBodyBytes {
			return nil, fmt.Errorf("state: delta checkpoint inflates past %d bytes", maxDeltaBodyBytes)
		}
		body = raw
	default:
		return nil, fmt.Errorf("state: delta checkpoint compression flag %d", flag)
	}
	return decodeDeltaBody(stream.NewDecoder(body), codec)
}

func encodeDeltaBody(e *stream.Encoder, dc *DeltaCheckpoint, codec PayloadCodec) error {
	encodeInstanceID(e, dc.Instance)
	dl := dc.Delta
	e.Uint64(dl.Base)
	e.Uint64(dl.Seq)
	e.TSVector(dl.TS)
	e.Uint32(uint32(dl.Changed.Len()))
	for k, v := range dl.Changed.All() {
		e.Uvarint(uint64(k))
		e.BytesV(v)
	}
	del := slices.Clone(dl.Deleted)
	slices.Sort(del)
	e.Uint32(uint32(len(del)))
	for _, k := range del {
		e.Uvarint(uint64(k))
	}
	if err := EncodeBuffer(e, dc.Buffer, codec); err != nil {
		return err
	}
	e.Int64(dc.OutClock)
	encodeAcks(e, dc.Acks)
	return nil
}

func decodeDeltaBody(d *stream.Decoder, codec PayloadCodec) (*DeltaCheckpoint, error) {
	dc := &DeltaCheckpoint{Delta: &Delta{}}
	dc.Instance = decodeInstanceID(d)
	dc.Delta.Base = d.Uint64()
	dc.Delta.Seq = d.Uint64()
	dc.Delta.TS = d.TSVector()
	nChanged := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	// A changed entry costs at least two bytes (key varint + length
	// prefix), so a sane count is bounded by the remaining body.
	if nChanged < 0 || nChanged > d.Remaining()/2+1 {
		return nil, fmt.Errorf("state: delta with %d changed keys exceeds body", nChanged)
	}
	// The wire's varint records become the run's fixed-width ones: the
	// one copy a delta's values take.
	var changed RunBuilder
	var prev stream.Key
	for i := 0; i < nChanged; i++ {
		k := stream.Key(d.Uvarint())
		v := d.BytesV()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("state: delta changed key %d after %d: keys must strictly ascend", k, prev)
		}
		changed.Append(k, v)
		prev = k
	}
	dc.Delta.Changed = changed.Run()
	nDeleted := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nDeleted < 0 || nDeleted > d.Remaining()+1 {
		return nil, fmt.Errorf("state: delta with %d deleted keys exceeds body", nDeleted)
	}
	for i := 0; i < nDeleted; i++ {
		dc.Delta.Deleted = append(dc.Delta.Deleted, stream.Key(d.Uvarint()))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	buf, err := DecodeBuffer(d, codec)
	if err != nil {
		return nil, err
	}
	dc.Buffer = buf
	dc.OutClock = d.Int64()
	if dc.Acks, err = decodeAcks(d); err != nil {
		return nil, err
	}
	return dc, nil
}
