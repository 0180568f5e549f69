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

// Processing is the processing state θo of an operator: a set of key/value
// pairs, held as one sorted run of the serialised per-key fragments the
// operator's get-processing-state function produced. The timestamps τo of
// the newest input tuples reflected in it are the checkpoint's Acks, one
// per upstream instance.
type Processing struct{ KV Run }

// NewProcessing returns empty processing state. Its argument is
// ignored; it remains only for bench/probes.go, and ROADMAP item 8
// deletes it.
func NewProcessing(int) *Processing { return &Processing{} }
