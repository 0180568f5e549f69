package stream

// TSVector is a per-input-stream timestamp vector that nothing reads:
// operator state keeps τo per upstream instance (state.Checkpoint.Acks).
// It remains only because bench/probes.go passes one to
// state.Store.TakeDelta, which ignores it; ROADMAP item 8 deletes it.
type TSVector []int64

// NewTSVector returns a zeroed vector of length n, for bench/probes.go
// alone (see TSVector).
func NewTSVector(n int) TSVector { return make(TSVector, n) }
