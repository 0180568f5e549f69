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

import "seep/internal/stream"

// Processing is the processing state θo of an operator: a set of key/value
// pairs plus the timestamp vector τo of the most recent input tuples
// reflected in it. Values are opaque bytes produced by the operator's
// get-processing-state function.
type Processing struct {
	// KV holds the serialised per-key state fragments as one sorted run.
	KV Run
	// TS is τo: per input stream, the newest timestamp reflected in KV.
	TS stream.TSVector
}

// NewProcessing returns empty processing state for an operator with n
// input streams.
func NewProcessing(n int) *Processing {
	return &Processing{TS: stream.NewTSVector(n)}
}

// Clone returns a copy the SPS can hold in isolation (§3.1): the
// timestamp vector is copied, the run is immutable and shared.
func (p *Processing) Clone() *Processing {
	if p == nil {
		return nil
	}
	return &Processing{KV: p.KV, TS: p.TS.Clone()}
}

// Size returns the number of bytes Encode writes, 0 for nil state. Used
// to model and measure checkpoint cost.
func (p *Processing) Size() int {
	if p == nil {
		return 0
	}
	return 4 + 8*len(p.TS) + p.KV.Size()
}

// Len returns the number of distinct keys.
func (p *Processing) Len() int {
	if p == nil {
		return 0
	}
	return p.KV.Len()
}

// Equal reports whether two processing states hold identical keys, values
// and timestamp vectors.
func (p *Processing) Equal(q *Processing) bool {
	if p == nil || q == nil {
		return p.Len() == 0 && q.Len() == 0
	}
	return p.TS.Equal(q.TS) && p.KV.Equal(q.KV)
}

// Encode serialises the processing state with the package codec: the
// timestamp vector, then the run — its cell table, its entry count and
// its records as they are.
func (p *Processing) Encode(e *stream.Encoder) {
	e.TSVector(p.TS)
	p.KV.encode(e)
}

// DecodeProcessing reads processing state written by Encode, which must
// be everything d has left. The run it returns indexes d's buffer
// instead of copying it, so the caller must own that buffer for as long
// as the state is in use.
func DecodeProcessing(d *stream.Decoder) (*Processing, error) {
	p := &Processing{TS: d.TSVector()}
	var err error
	if p.KV, err = decodeRun(d); err != nil {
		return nil, err
	}
	return p, nil
}

// Partition splits the processing state into len(ranges) parts following
// partition-processing-state (Algorithm 2, lines 4-6): part i is the
// sub-run of keys inside ranges[i] — shared, not copied — and every part
// inherits a copy of the timestamp vector. Keys outside every range are
// dropped, which cannot happen when ranges partition the original key
// interval.
func (p *Processing) Partition(ranges []KeyRange) []*Processing {
	parts := make([]*Processing, len(ranges))
	for i, r := range ranges {
		parts[i] = &Processing{KV: p.KV.Range(r), TS: p.TS.Clone()}
	}
	return parts
}

// MergeProcessing unions the state of several partitions into one, the
// scale-in primitive of §3.3. Keys must be disjoint across the inputs
// (they are, when the inputs are partitions of one operator) and their
// runs must name the same cells; otherwise it returns an error rather
// than silently losing state.
func MergeProcessing(parts ...*Processing) (*Processing, error) {
	out := &Processing{}
	runs := make([]Run, 0, len(parts))
	for _, p := range parts {
		if p == nil {
			continue
		}
		runs = append(runs, p.KV)
		out.TS = out.TS.Merge(p.TS)
	}
	var err error
	if out.KV, err = mergeRuns(runs); err != nil {
		return nil, err
	}
	return out, nil
}
