// Package operator defines the operator model of §2.2 — deterministic
// functions over input streams with optional externally-managed state —
// and a library of reusable operators (map, filter, flat-map, windowed
// aggregation, top-k reduction, windowed hash join).
//
// Stateful operators keep their state in system-managed typed cells
// (state.Value, state.Map) registered against a state.Store created at
// construction and exposed through the Managed interface. The store owns
// locking, serialisation, snapshot, restore and dirty-key tracking, so
// the hosting node can checkpoint, back up, partition and merge operator
// state — fully or incrementally — without the operator's involvement
// (the get/set-processing-state functions of §3.1, implemented once).
// The hosting node composes the key/value pairs with the acknowledgement
// map it tracks into a state.Checkpoint, so operators never deal with
// timestamps, buffering, routing or replay.
package operator

import (
	"seep/internal/state"
	"seep/internal/stream"
)

// Context carries per-invocation information into an operator.
type Context struct {
	// Now is the current time in milliseconds since the run started.
	// Under the simulator this is virtual time; in the live engine it is
	// wall-clock time. Operators use it only for windowing.
	Now int64
	// Input is the index of the input stream the tuple arrived on
	// (matches the position in plan.Query.Upstream order).
	Input int
}

// Emitter is the operator's output: emitting a key and payload creates an
// output tuple. The hosting node stamps the tuple with the operator's
// output logical clock and routes it by key.
type Emitter func(key stream.Key, payload any)

// Operator is a deterministic stream operator. Implementations must not
// have externally visible side effects other than emitted tuples and, for
// Managed implementations, their managed state (§2.2).
type Operator interface {
	// OnTuple processes one input tuple, emitting zero or more outputs.
	OnTuple(ctx Context, t stream.Tuple, emit Emitter)
}

// Managed is implemented by operators whose state lives in a
// system-managed state.Store: the operator declares typed keyed cells at
// construction and mutates state only through them, and the hosting node
// drives checkpoint, backup, restore, partition, merge and incremental
// deltas through the store.
type Managed interface {
	Operator
	// State returns the operator's managed state store. The store is
	// created by the operator's constructor and must be non-nil.
	State() *state.Store
}

// StoreOf returns op's managed state store, or nil when op is stateless.
func StoreOf(op Operator) *state.Store {
	if m, ok := op.(Managed); ok {
		return m.State()
	}
	return nil
}

// TimeDriven is implemented by operators that act on the passage of time,
// e.g. tumbling-window flushes. The hosting node invokes OnTime
// periodically with the current time in milliseconds.
type TimeDriven interface {
	OnTime(now int64, emit Emitter)
}

// Factory creates a fresh operator instance. Each partitioned instance of
// a logical operator gets its own Operator value, so implementations need
// no internal synchronisation across partitions.
type Factory func() Operator

// Func adapts a plain function to the Operator interface for stateless
// transformations.
type Func func(ctx Context, t stream.Tuple, emit Emitter)

// OnTuple implements Operator.
func (f Func) OnTuple(ctx Context, t stream.Tuple, emit Emitter) { f(ctx, t, emit) }

// Map returns a stateless operator applying f to every tuple. If f
// reports false the tuple is dropped, so Map doubles as a filter-map.
func Map(f func(t stream.Tuple) (stream.Key, any, bool)) Operator {
	return Func(func(_ Context, t stream.Tuple, emit Emitter) {
		if k, p, ok := f(t); ok {
			emit(k, p)
		}
	})
}

// Filter returns a stateless operator forwarding tuples that satisfy
// pred, preserving key and payload.
func Filter(pred func(t stream.Tuple) bool) Operator {
	return Func(func(_ Context, t stream.Tuple, emit Emitter) {
		if pred(t) {
			emit(t.Key, t.Payload)
		}
	})
}

// Passthrough forwards every tuple unchanged. Useful as a sink collector
// or a forwarding hop.
func Passthrough() Operator {
	return Func(func(_ Context, t stream.Tuple, emit Emitter) {
		emit(t.Key, t.Payload)
	})
}
