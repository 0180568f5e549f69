package state

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
)

// Codec serialises one cell value type. Snapshots, deltas, partitioning
// and merging all operate on the bytes a Codec produces, so Encode must
// be deterministic for a given value and Decode(Encode(v)) must
// reproduce v exactly.
type Codec[T any] interface {
	Encode(T) ([]byte, error)
	Decode([]byte) (T, error)
}

// appender is the capture fast path a codec may offer besides Codec:
// append v's encoding — the bytes Encode returns — to dst, so a
// checkpoint's cells write into one body instead of allocating a slice
// per value. The fixed-layout codecs of this package implement it.
type appender[T any] interface {
	appendTo(dst []byte, v T) []byte
}

// fixedWidth is implemented by codecs whose every encoding is width()
// bytes long, which lets a capture size its body exactly.
type fixedWidth interface{ width() int }

// encoder returns c's append encoder: its appender fast path when it
// has one, else Encode and an append.
func encoder[T any](c Codec[T]) func(dst []byte, v T) ([]byte, error) {
	if fast, ok := c.(appender[T]); ok {
		return func(dst []byte, v T) ([]byte, error) { return fast.appendTo(dst, v), nil }
	}
	return func(dst []byte, v T) ([]byte, error) {
		b, err := c.Encode(v)
		return append(dst, b...), err
	}
}

// GobCodec serialises values with encoding/gob — the default codec for
// cells registered without one. Suitable for concrete types; note that
// gob's map encoding order is not deterministic, so prefer JSONCodec (or
// a custom codec) for map-typed values when byte-level determinism
// matters.
type GobCodec[T any] struct{}

// Encode implements Codec.
func (GobCodec[T]) Encode(v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode implements Codec.
func (GobCodec[T]) Decode(b []byte) (T, error) {
	var v T
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v)
	return v, err
}

// JSONCodec serialises values with encoding/json. JSON sorts map keys,
// so it is the default choice for map-typed cell values.
type JSONCodec[T any] struct{}

// Encode implements Codec.
func (JSONCodec[T]) Encode(v T) ([]byte, error) { return json.Marshal(v) }

// Decode implements Codec.
func (JSONCodec[T]) Decode(b []byte) (T, error) {
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// CodecFunc adapts a pair of functions to Codec — the bridge for
// operators that already own payload serialisation (e.g. WindowJoin's
// user-supplied encode/decode).
type CodecFunc[T any] struct {
	Enc func(T) ([]byte, error)
	Dec func([]byte) (T, error)
}

// Encode implements Codec.
func (c CodecFunc[T]) Encode(v T) ([]byte, error) { return c.Enc(v) }

// Decode implements Codec.
func (c CodecFunc[T]) Decode(b []byte) (T, error) { return c.Dec(b) }

// Int64Codec is a compact fixed-width codec for int64 cells (8 bytes,
// little endian) — counters, timestamps.
type Int64Codec struct{}

// Encode implements Codec.
func (c Int64Codec) Encode(v int64) ([]byte, error) { return c.appendTo(nil, v), nil }

func (Int64Codec) width() int { return 8 }

func (Int64Codec) appendTo(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// Decode implements Codec.
func (Int64Codec) Decode(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("state: int64 value is %d bytes, want 8", len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// Float64Codec is a compact fixed-width codec for float64 cells (IEEE
// 754 bits, 8 bytes little endian) — accumulators.
type Float64Codec struct{}

// Encode implements Codec.
func (c Float64Codec) Encode(v float64) ([]byte, error) { return c.appendTo(nil, v), nil }

func (Float64Codec) width() int { return 8 }

func (Float64Codec) appendTo(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// Decode implements Codec.
func (Float64Codec) Decode(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("state: float64 value is %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// StringCodec stores string cells as raw bytes.
type StringCodec struct{}

// Encode implements Codec.
func (StringCodec) Encode(v string) ([]byte, error) { return []byte(v), nil }

func (StringCodec) appendTo(dst []byte, v string) []byte { return append(dst, v...) }

// Decode implements Codec.
func (StringCodec) Decode(b []byte) (string, error) { return string(b), nil }
