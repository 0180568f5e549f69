package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"seep/internal/plan"
	"seep/internal/stream"
	"seep/internal/wirecodec"
)

// PayloadCodec serialises tuple payloads whose concrete type has no
// wire tag (wirecodec's tag-0 fallback), in checkpoints as on the wire.
// Buffer state retains whole tuples, so encoding a checkpoint encodes
// their payloads; processing-state values are already bytes.
type PayloadCodec = wirecodec.PayloadCodec

// StringPayloadCodec handles string payloads (e.g. the word frequency
// workloads).
type StringPayloadCodec struct{}

// EncodePayload implements PayloadCodec.
func (StringPayloadCodec) EncodePayload(p any) ([]byte, error) {
	s, ok := p.(string)
	if !ok {
		return nil, fmt.Errorf("state: payload %T is not a string", p)
	}
	return []byte(s), nil
}

// DecodePayload implements PayloadCodec.
func (StringPayloadCodec) DecodePayload(b []byte) (any, error) { return string(b), nil }

// GobPayloadCodec serialises arbitrary payloads with encoding/gob — the
// default codec of the distributed runtime, where tuples of any
// registered concrete type cross process boundaries. Every payload type
// other than gob's predeclared ones must be registered (gob.Register) in
// every participating binary; the operator library registers its own
// output types.
type GobPayloadCodec struct{}

// EncodePayload implements PayloadCodec.
func (GobPayloadCodec) EncodePayload(p any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return nil, fmt.Errorf("state: gob payload %T: %w", p, err)
	}
	return buf.Bytes(), nil
}

// DecodePayload implements PayloadCodec.
func (GobPayloadCodec) DecodePayload(b []byte) (any, error) {
	var p any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return nil, fmt.Errorf("state: gob payload: %w", err)
	}
	return p, nil
}

// encodeInstanceID writes an instance identifier.
func encodeInstanceID(e *stream.Encoder, id plan.InstanceID) {
	e.String32(string(id.Op))
	e.Uint32(uint32(id.Part))
}

func decodeInstanceID(d *stream.Decoder) plan.InstanceID {
	op := d.String32()
	part := int(d.Uint32())
	return plan.InstanceID{Op: plan.OpID(op), Part: part}
}

// encodeAcks writes an acknowledgement map in (Op, Part) order.
func encodeAcks(e *stream.Encoder, acks map[plan.InstanceID]int64) {
	ids := make([]plan.InstanceID, 0, len(acks))
	for id := range acks {
		ids = append(ids, id)
	}
	SortInstanceIDs(ids)
	e.Uint32(uint32(len(ids)))
	for _, id := range ids {
		encodeInstanceID(e, id)
		e.Int64(acks[id])
	}
}

func decodeAcks(d *stream.Decoder) (map[plan.InstanceID]int64, error) {
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	// An entry costs at least 16 bytes (instance identifier + timestamp).
	if n > d.Remaining()/16 {
		return nil, fmt.Errorf("state: %d acknowledgements exceed the %d bytes left", n, d.Remaining())
	}
	if n == 0 {
		return nil, nil
	}
	acks := make(map[plan.InstanceID]int64, n)
	for i := 0; i < n; i++ {
		id := decodeInstanceID(d)
		acks[id] = d.Int64()
	}
	return acks, d.Err()
}

// EncodeBuffer serialises buffer state: per downstream instance, its
// retained tuples as one wirecodec run, written chunk by chunk — the
// bytes a batch frame carries them as. codec is the tag-0 fallback for
// unregistered payload types. A nil buffer encodes as an empty one.
func EncodeBuffer(e *stream.Encoder, b *Buffer, codec PayloadCodec) error {
	if b == nil {
		e.Uint32(0)
		return nil
	}
	targets := b.Targets()
	e.Uint32(uint32(len(targets)))
	for _, target := range targets {
		encodeInstanceID(e, target)
		tb := b.perTarget[target]
		e.Uvarint(uint64(tb.len()))
		var run wirecodec.TupleRun
		for seg := range tb.segments() {
			if err := run.Encode(e, seg, codec); err != nil {
				return fmt.Errorf("state: encode buffered tuples for %s: %w", target, err)
			}
		}
	}
	return nil
}

// DecodeBuffer reads buffer state written by EncodeBuffer.
func DecodeBuffer(d *stream.Decoder, codec PayloadCodec) (*Buffer, error) {
	b := NewBuffer()
	nTargets := int(d.Uint32())
	for i := 0; i < nTargets; i++ {
		target := decodeInstanceID(d)
		tuples, err := wirecodec.DecodeTuples(d, codec, func(n int) []stream.Tuple { return make([]stream.Tuple, 0, n) })
		if err != nil {
			return nil, fmt.Errorf("state: decode buffered tuples for %s: %w", target, err)
		}
		tb := &targetBuf{}
		for _, t := range tuples {
			tb.append(t)
		}
		b.perTarget[target] = tb
	}
	return b, d.Err()
}

// checkpointMagic guards encoded checkpoints against foreign input and
// names the layout; "SEP3" is the one whose processing section names
// its cells once (its predecessors — "SEP2", which named a cell in every
// record, and "SEEP", which interleaved state and bookkeeping — have no
// reader).
const checkpointMagic = uint32(0x53455033)

// CheckpointHeader is the part of an encoded checkpoint a backup host
// acts on — who it belongs to, whether it is newer, which upstream
// buffers it lets trim — readable without decoding the state behind it.
type CheckpointHeader struct {
	Instance plan.InstanceID
	Seq      uint64
	OutClock int64
	Acks     map[plan.InstanceID]int64
}

// EncodeCheckpoint serialises a full checkpoint so it can be shipped to
// its backup host and persisted (§3.3's persist operation): the magic,
// the CheckpointHeader fields, then three length-prefixed sections —
// processing state, buffer state, legacy buffers.
func EncodeCheckpoint(e *stream.Encoder, cp *Checkpoint, codec PayloadCodec) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	encodeCheckpointHeader(e, cp)
	encodeProcessingSection(e, cp.Processing)
	return encodeBufferSections(e, cp, codec)
}

func encodeCheckpointHeader(e *stream.Encoder, cp *Checkpoint) {
	e.Uint32(checkpointMagic)
	encodeInstanceID(e, cp.Instance)
	e.Uint64(cp.Seq)
	e.Int64(cp.OutClock)
	encodeAcks(e, cp.Acks)
}

func encodeProcessingSection(e *stream.Encoder, p *Processing) {
	mark := e.BeginSection()
	p.Encode(e)
	e.EndSection(mark)
}

// encodeBufferSections writes the two sections behind the processing
// state: the buffer state and the legacy buffers.
func encodeBufferSections(e *stream.Encoder, cp *Checkpoint, codec PayloadCodec) error {
	mark := e.BeginSection()
	if err := EncodeBuffer(e, cp.Buffer, codec); err != nil {
		return err
	}
	e.EndSection(mark)

	// Legacy buffers inherited through scale-in merges, keyed by the
	// original sender. Owners with no live tuples are elided.
	mark = e.BeginSection()
	owners := slices.DeleteFunc(LegacyOwners(cp.Legacy), func(o plan.InstanceID) bool {
		return cp.Legacy[o] == nil || cp.Legacy[o].Len() == 0
	})
	e.Uint32(uint32(len(owners)))
	for _, owner := range owners {
		encodeInstanceID(e, owner)
		if err := EncodeBuffer(e, cp.Legacy[owner], codec); err != nil {
			return err
		}
	}
	e.EndSection(mark)
	return nil
}

// MarshalCheckpoint encodes cp into a buffer of its own: MarshalCheckpointAfter
// with nothing ahead of it.
func MarshalCheckpoint(cp *Checkpoint, codec PayloadCodec) ([]byte, error) {
	return MarshalCheckpointAfter(nil, cp, codec)
}

// MarshalCheckpointAfter encodes cp behind a copy of head, into one
// buffer allocated at exactly their joint length: a message that carries
// a checkpoint behind its own head is encoded once, and a backup host
// that keeps the blob keeps no slack with it. Only the header and the
// buffer sections have a length unknown before they are encoded; they
// are small next to the processing state, so they are encoded aside
// first and copied in.
func MarshalCheckpointAfter(head []byte, cp *Checkpoint, codec PayloadCodec) ([]byte, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	p := cp.Processing
	aside := stream.NewEncoder(256 + cp.bufferSize())
	encodeCheckpointHeader(aside, cp)
	header := aside.Len()
	if err := encodeBufferSections(aside, cp, codec); err != nil {
		return nil, err
	}
	e := stream.NewEncoder(len(head) + aside.Len() + 8 + p.Size()) // 8: the section's length prefix
	e.Raw(head)
	e.Raw(aside.Bytes()[:header])
	encodeProcessingSection(e, p)
	e.Raw(aside.Bytes()[header:])
	return e.Bytes(), nil
}

func decodeCheckpointHeader(d *stream.Decoder) (CheckpointHeader, error) {
	var h CheckpointHeader
	if magic := d.Uint32(); d.Err() == nil && magic != checkpointMagic {
		return h, fmt.Errorf("state: not a checkpoint (magic %x)", magic)
	}
	h.Instance = decodeInstanceID(d)
	h.Seq = d.Uint64()
	h.OutClock = d.Int64()
	acks, err := decodeAcks(d)
	if err != nil {
		return h, err
	}
	h.Acks = acks
	if h.Instance.Op == "" {
		return h, fmt.Errorf("state: checkpoint with empty instance")
	}
	return h, nil
}

// DecodeCheckpointHeader reads the header of an encoded checkpoint and
// checks that the three sections behind it tile the rest of b exactly,
// without reading into them: what a backup host does per stored
// checkpoint. The body is DecodeCheckpoint's business, when a
// transition needs it.
func DecodeCheckpointHeader(b []byte) (CheckpointHeader, error) {
	d := stream.NewDecoder(b)
	h, err := decodeCheckpointHeader(d)
	if err != nil {
		return h, err
	}
	for i := 0; i < 3; i++ {
		d.Section()
	}
	if err := d.Err(); err != nil {
		return h, err
	}
	if d.Remaining() != 0 {
		return h, fmt.Errorf("state: %d bytes after the checkpoint's last section", d.Remaining())
	}
	return h, nil
}

// DecodeCheckpoint reads a checkpoint written by EncodeCheckpoint. On
// any error no checkpoint is returned. The processing state indexes d's
// buffer where it lies (DecodeProcessing), so the caller must own that
// buffer and leave it alone while the checkpoint lives — as every caller
// does: a backup host decodes the blob it stored, a worker the control
// body its transport read into a buffer of its own, the durable store
// the file it read.
func DecodeCheckpoint(d *stream.Decoder, codec PayloadCodec) (*Checkpoint, error) {
	h, err := decodeCheckpointHeader(d)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{Instance: h.Instance, Seq: h.Seq, OutClock: h.OutClock, Acks: h.Acks}
	if cp.Processing, err = DecodeProcessing(d.Section()); err != nil {
		return nil, err
	}
	if cp.Buffer, err = DecodeBuffer(d.Section(), codec); err != nil {
		return nil, err
	}
	ld := d.Section()
	nLegacy := int(ld.Uint32())
	for i := 0; i < nLegacy; i++ {
		owner := decodeInstanceID(ld)
		b, err := DecodeBuffer(ld, codec)
		if err != nil {
			return nil, err
		}
		if cp.Legacy == nil {
			cp.Legacy = make(map[plan.InstanceID]*Buffer)
		}
		cp.Legacy[owner] = b
	}
	if err := ld.Err(); err != nil {
		return nil, err
	}
	return cp, nil
}
