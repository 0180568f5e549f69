// Package state implements the externalised operator state of the paper:
// processing state (§3.1), buffer state, routing state, checkpoints, and
// the partitioning primitives of Algorithm 2. It also provides the
// extensions discussed in §3.3: merging state for scale-in, incremental
// (delta) checkpoints, and spilling state to disk.
//
// State is represented generically as key/value pairs over the tuple key
// space, which is what lets a stream processing system checkpoint, back
// up, restore and partition the state of arbitrary stateful operators
// without understanding their semantics.
package state

import (
	"fmt"
	"slices"

	"seep/internal/stream"
)

// Processing is the processing state θo of an operator: a set of key/value
// pairs plus the timestamp vector τo of the most recent input tuples
// reflected in it. Values are opaque bytes produced by the operator's
// get-processing-state function.
type Processing struct {
	// KV maps tuple keys to the serialised per-key state fragment.
	KV map[stream.Key][]byte
	// TS is τo: per input stream, the newest timestamp reflected in KV.
	TS stream.TSVector
}

// NewProcessing returns empty processing state for an operator with n
// input streams.
func NewProcessing(n int) *Processing {
	return &Processing{KV: make(map[stream.Key][]byte), TS: stream.NewTSVector(n)}
}

// Clone returns a deep copy: mutating the copy never affects the original.
// checkpoint-state must hand the SPS an isolated copy (§3.1).
func (p *Processing) Clone() *Processing {
	if p == nil {
		return nil
	}
	out := &Processing{KV: make(map[stream.Key][]byte, len(p.KV)), TS: p.TS.Clone()}
	for k, v := range p.KV {
		cp := make([]byte, len(v))
		copy(cp, v)
		out.KV[k] = cp
	}
	return out
}

// Size returns the total serialised footprint in bytes: per-entry key
// overhead plus value bytes. Used to model and measure checkpoint cost.
func (p *Processing) Size() int {
	if p == nil {
		return 0
	}
	n := 8 * len(p.TS)
	for _, v := range p.KV {
		n += 8 + len(v)
	}
	return n
}

// Len returns the number of distinct keys.
func (p *Processing) Len() int {
	if p == nil {
		return 0
	}
	return len(p.KV)
}

// Keys returns all keys in ascending order (deterministic iteration for
// tests and frequency-guided splitting).
func (p *Processing) Keys() []stream.Key {
	keys := make([]stream.Key, 0, len(p.KV))
	for k := range p.KV {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Equal reports whether two processing states hold identical keys, values
// and timestamp vectors.
func (p *Processing) Equal(q *Processing) bool {
	if p == nil || q == nil {
		return p.Len() == 0 && q.Len() == 0
	}
	if len(p.KV) != len(q.KV) || !p.TS.Equal(q.TS) {
		return false
	}
	for k, v := range p.KV {
		w, ok := q.KV[k]
		if !ok || len(v) != len(w) {
			return false
		}
		for i := range v {
			if v[i] != w[i] {
				return false
			}
		}
	}
	return true
}

// Encode serialises the processing state with the package codec.
func (p *Processing) Encode(e *stream.Encoder) {
	e.TSVector(p.TS)
	e.Uint32(uint32(len(p.KV)))
	for _, k := range p.Keys() {
		e.Key(k)
		e.Bytes32(p.KV[k])
	}
}

// DecodeProcessing reads processing state written by Encode.
func DecodeProcessing(d *stream.Decoder) (*Processing, error) {
	p := &Processing{TS: d.TSVector()}
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	// An entry costs at least 12 bytes (key + length prefix).
	if n > d.Remaining()/12 {
		return nil, fmt.Errorf("state: %d processing-state entries exceed the %d bytes left", n, d.Remaining())
	}
	p.KV = make(map[stream.Key][]byte, n)
	for i := 0; i < n; i++ {
		k := d.Key()
		v := d.Bytes32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		cp := make([]byte, len(v))
		copy(cp, v)
		p.KV[k] = cp
	}
	return p, nil
}

// Partition splits the processing state into len(ranges) disjoint parts
// following partition-processing-state (Algorithm 2, lines 4-6): part i
// receives exactly the keys inside ranges[i], and every part inherits a
// copy of the timestamp vector. Keys outside every range are dropped,
// which cannot happen when ranges partition the original key interval.
func (p *Processing) Partition(ranges []KeyRange) []*Processing {
	parts := make([]*Processing, len(ranges))
	for i := range parts {
		parts[i] = &Processing{KV: make(map[stream.Key][]byte), TS: p.TS.Clone()}
	}
	for k, v := range p.KV {
		for i, r := range ranges {
			if r.Contains(k) {
				cp := make([]byte, len(v))
				copy(cp, v)
				parts[i].KV[k] = cp
				break
			}
		}
	}
	return parts
}

// MergeProcessing unions the state of several partitions into one, the
// scale-in primitive of §3.3. Keys must be disjoint across the inputs
// (they are, when the inputs are partitions of one operator); on overlap
// it returns an error rather than silently losing state.
func MergeProcessing(parts ...*Processing) (*Processing, error) {
	out := &Processing{KV: make(map[stream.Key][]byte)}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for k, v := range p.KV {
			if _, dup := out.KV[k]; dup {
				return nil, fmt.Errorf("state: merge overlap on key %d", k)
			}
			cp := make([]byte, len(v))
			copy(cp, v)
			out.KV[k] = cp
		}
		out.TS = out.TS.Merge(p.TS)
	}
	return out, nil
}
