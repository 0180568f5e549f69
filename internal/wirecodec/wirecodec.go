// Package wirecodec implements the compact binary tuple encoding shared
// by the v2 batch frames and by buffer state in checkpoints (tuples.go):
// every tuple payload is a one-byte wire tag followed by a tag-specific
// body. Common Go scalars have fixed builtin tags; registered concrete
// types (seep.RegisterPayloadType, the operator library's output types)
// get tags from a process-global registry with hand-written or
// gob-backed codecs; anything else falls back to tag 0 — the caller's
// configured PayloadCodec (gob by default) — so an unregistered type
// costs compactness, never correctness.
//
// The registry is process-global for the same reason gob.Register is:
// both ends of a connection live in different processes, so the tag
// assignment must be a deterministic function of registration order
// compiled into every binary.
package wirecodec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"seep/internal/stream"
)

// PayloadCodec is the tag-0 fallback: it serialises a payload whose
// concrete type has no wire tag. state.PayloadCodec is this type.
type PayloadCodec interface {
	EncodePayload(payload any) ([]byte, error)
	DecodePayload(b []byte) (any, error)
}

// Builtin wire tags. Tag 0 is the fallback: a uvarint length-prefixed
// blob produced by the connection's configured PayloadCodec.
const (
	TagFallback = uint8(0)
	TagNil      = uint8(1)
	TagString   = uint8(2)
	TagBytes    = uint8(3)
	TagInt64    = uint8(4)
	TagInt      = uint8(5)
	TagFloat64  = uint8(6)
	TagBool     = uint8(7)
	// FirstUserTag is the first tag handed to registered types; the
	// remaining space (8..255) allows 248 registrations per process.
	FirstUserTag = uint8(8)
)

// EncodeFunc serialises one payload of the registered concrete type.
type EncodeFunc func(e *stream.Encoder, v any) error

// DecodeFunc reads back what the matching EncodeFunc wrote.
type DecodeFunc func(d *stream.Decoder) (any, error)

type entry struct {
	tag uint8
	enc EncodeFunc
	dec DecodeFunc
}

// table is an immutable registry snapshot: readers load it with one
// atomic pointer read, registration copies and republishes it.
type table struct {
	byType map[reflect.Type]entry
	byTag  [256]*entry
	next   uint16 // next unassigned tag; >255 means exhausted
}

var (
	regMu  sync.Mutex
	tables atomic.Pointer[table]
)

func init() {
	tables.Store(&table{byType: map[reflect.Type]entry{}, next: uint16(FirstUserTag)})
}

// Register assigns a wire tag to the concrete type of v, encoded as a
// gob blob on the wire, and registers the type with encoding/gob for
// the fallback path. It returns the assigned tag. Registering the same
// type again returns the original tag and an error; gob name conflicts
// surface as errors instead of panics.
func Register(v any) (uint8, error) {
	if v == nil {
		return 0, fmt.Errorf("wirecodec: cannot register nil")
	}
	return RegisterCodec(v, gobEncode, gobDecode)
}

// RegisterCodec assigns a wire tag to the concrete type of v with a
// hand-written codec — the fast, byte-deterministic path the operator
// library uses for its output types. The type is also registered with
// encoding/gob so pre-binary peers and the tag-0 fallback can still
// carry it. Returns the assigned tag; duplicate registration returns
// the original tag and an error.
func RegisterCodec(v any, enc EncodeFunc, dec DecodeFunc) (uint8, error) {
	if v == nil {
		return 0, fmt.Errorf("wirecodec: cannot register nil")
	}
	if enc == nil || dec == nil {
		return 0, fmt.Errorf("wirecodec: nil codec for %T", v)
	}
	rt := reflect.TypeOf(v)
	regMu.Lock()
	defer regMu.Unlock()
	old := tables.Load()
	if ent, ok := old.byType[rt]; ok {
		return ent.tag, fmt.Errorf("wirecodec: %s already registered as wire tag %d", rt, ent.tag)
	}
	if old.next > 255 {
		return 0, fmt.Errorf("wirecodec: wire-tag space exhausted (%d user types)", 256-int(FirstUserTag))
	}
	if err := gobRegister(v); err != nil {
		return 0, err
	}
	nt := &table{byType: make(map[reflect.Type]entry, len(old.byType)+1), byTag: old.byTag, next: old.next + 1}
	for k, e := range old.byType {
		nt.byType[k] = e
	}
	ent := entry{tag: uint8(old.next), enc: enc, dec: dec}
	nt.byType[rt] = ent
	ec := ent
	nt.byTag[ent.tag] = &ec
	tables.Store(nt)
	return ent.tag, nil
}

// gobRegister wraps gob.Register, converting its conflicting-name panic
// into an error.
func gobRegister(v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wirecodec: gob registration of %T: %v", v, r)
		}
	}()
	gob.Register(v)
	return nil
}

func gobEncode(e *stream.Encoder, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return fmt.Errorf("wirecodec: gob payload %T: %w", v, err)
	}
	e.BytesV(buf.Bytes())
	return nil
}

func gobDecode(d *stream.Decoder) (any, error) {
	b := d.BytesV()
	if err := d.Err(); err != nil {
		return nil, err
	}
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("wirecodec: gob payload: %w", err)
	}
	return v, nil
}

// EncodePayload appends the tag and body for v. Builtin scalars take the
// type-switch fast path (a string payload is appended directly, no
// []byte conversion — the encode side of a hop is allocation-free);
// registered types use their codec; everything else is a tag-0 blob
// through the connection's fallback codec. A registered codec that fails
// mid-payload is rolled back and retried through the fallback, so a
// frame is never left with a half-written record.
func EncodePayload(e *stream.Encoder, v any, fallback PayloadCodec) error {
	switch p := v.(type) {
	case string:
		e.Uint8(TagString)
		e.StringV(p)
		return nil
	case nil:
		e.Uint8(TagNil)
		return nil
	case []byte:
		e.Uint8(TagBytes)
		e.BytesV(p)
		return nil
	case int64:
		e.Uint8(TagInt64)
		e.Varint(p)
		return nil
	case int:
		e.Uint8(TagInt)
		e.Varint(int64(p))
		return nil
	case float64:
		e.Uint8(TagFloat64)
		e.Float64(p)
		return nil
	case bool:
		e.Uint8(TagBool)
		e.Bool(p)
		return nil
	}
	if ent, ok := tables.Load().byType[reflect.TypeOf(v)]; ok {
		mark := e.Len()
		e.Uint8(ent.tag)
		if err := ent.enc(e, v); err == nil {
			return nil
		}
		e.Truncate(mark)
	}
	e.Uint8(TagFallback)
	pb, err := fallback.EncodePayload(v)
	if err != nil {
		return err
	}
	e.BytesV(pb)
	return nil
}

// DecodePayload reads one tag-prefixed payload written by EncodePayload.
func DecodePayload(d *stream.Decoder, fallback PayloadCodec) (any, error) {
	switch tag := d.Uint8(); tag {
	case TagString:
		return d.StringV(), d.Err()
	case TagNil:
		return nil, d.Err()
	case TagBytes:
		b := d.BytesV()
		if err := d.Err(); err != nil {
			return nil, err
		}
		cp := make([]byte, len(b))
		copy(cp, b)
		return cp, nil
	case TagInt64:
		return d.Varint(), d.Err()
	case TagInt:
		return int(d.Varint()), d.Err()
	case TagFloat64:
		return d.Float64(), d.Err()
	case TagBool:
		return d.Bool(), d.Err()
	case TagFallback:
		pb := d.BytesV()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return fallback.DecodePayload(pb)
	default:
		if ent := tables.Load().byTag[tag]; ent != nil {
			return ent.dec(d)
		}
		return nil, fmt.Errorf("wirecodec: unknown payload wire tag %d", tag)
	}
}

// EncodeAny encodes a nested payload (a registered type's field of
// interface type) with builtin and registered tags only — there is no
// fallback codec in a nested context, so an unregistered inner type is
// an error, which the top-level EncodePayload turns into a whole-record
// fallback.
func EncodeAny(e *stream.Encoder, v any) error {
	switch v.(type) {
	case string, nil, []byte, int64, int, float64, bool:
		return EncodePayload(e, v, nil)
	}
	if ent, ok := tables.Load().byType[reflect.TypeOf(v)]; ok {
		e.Uint8(ent.tag)
		return ent.enc(e, v)
	}
	return fmt.Errorf("wirecodec: unregistered nested payload type %T", v)
}

// DecodeAny reads a nested payload written by EncodeAny.
func DecodeAny(d *stream.Decoder) (any, error) {
	return DecodePayload(d, rejectFallback{})
}

// rejectFallback guards DecodeAny: EncodeAny never writes tag 0, so a
// nested fallback blob means a corrupt or foreign frame.
type rejectFallback struct{}

func (rejectFallback) EncodePayload(any) ([]byte, error) {
	return nil, fmt.Errorf("wirecodec: nested payload cannot use the fallback codec")
}

func (rejectFallback) DecodePayload([]byte) (any, error) {
	return nil, fmt.Errorf("wirecodec: nested payload cannot use the fallback codec")
}
