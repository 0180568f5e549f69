package transport

import (
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/wirecodec"
)

// Batch is the engine's unit of tuples in flight, carried as is: one
// frame per batch amortises the header, the instance addressing and the
// syscall the same way the in-process channels amortise sends.
type Batch = state.Batch

func encodeInstanceID(e *stream.Encoder, id plan.InstanceID) {
	e.String32(string(id.Op))
	e.Uint32(uint32(id.Part))
}

func decodeInstanceID(d *stream.Decoder) plan.InstanceID {
	op := d.String32()
	return plan.InstanceID{Op: plan.OpID(op), Part: int(d.Uint32())}
}

// encodeBatch writes a batch body: the routing header, then the tuples
// as one wirecodec run — the same
// bytes buffer state holds them as in a checkpoint. codec is the tag-0
// fallback for unregistered payload types.
func encodeBatch(e *stream.Encoder, b Batch, codec state.PayloadCodec) error {
	encodeInstanceID(e, b.From)
	encodeInstanceID(e, b.To)
	e.Int32(int32(b.Input))
	return wirecodec.EncodeTuples(e, b.Tuples, codec)
}

func decodeBatch(d *stream.Decoder, codec state.PayloadCodec) (Batch, error) {
	var b Batch
	b.From = decodeInstanceID(d)
	b.To = decodeInstanceID(d)
	b.Input = int(d.Int32())
	tuples, err := wirecodec.DecodeTuples(d, codec, state.BatchTuples)
	b.Tuples = tuples
	return b, err
}
