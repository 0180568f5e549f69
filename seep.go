// Package seep is a stream processing system with explicit operator
// state management, reproducing Fernandez, Migliavacca, Kalyvianaki and
// Pietzuch, "Integrating Scale Out and Fault Tolerance in Stream
// Processing using Operator State Management" (SIGMOD 2013).
//
// The key idea is to externalise operator state — processing state,
// buffer state and routing state — behind a small set of management
// primitives (checkpoint, backup, restore, partition), and to drive both
// dynamic scale out of bottleneck operators and failure recovery through
// one integrated algorithm: recovery is scale out with parallelism 1,
// and parallel recovery is scale out of a failed operator.
//
// This package is the public facade. A query is declared once with the
// fluent Topology builder, which binds the operator graph and the
// operator factories together and validates the whole declaration at
// Build time:
//
//	topo, err := seep.NewTopology().
//		Source("src").
//		Stateless("split", func() seep.Operator { return seep.WordSplitter() }).
//		Stateful("count", func() seep.Operator { return seep.NewWordCounter(0) }).
//		Sink("sink").
//		Build()
//
// User operators implement Operator; stateful operators declare typed
// managed state cells (NewValueState / NewMapState) against a
// system-owned StateStore and expose it via Managed, so the system
// checkpoints — fully or incrementally — backs up, partitions and
// restores their state without operator code.
//
// Three substrates execute topologies behind one Runtime/Job interface,
// so scenarios are written once and run on any:
//
//   - seep.Live(...): a live runtime of goroutines and channels with
//     wall-clock checkpointing, live scale out and failure recovery.
//   - seep.Simulated(...): a deterministic discrete-event cluster
//     simulation with a VM model, a pre-allocated VM pool that masks
//     IaaS provisioning delays, CPU-cost accounting, failure injection
//     and the bottleneck-driven scaling policy of the paper — the
//     substrate used to reproduce the paper's experiments.
//   - seep.Distributed(...): a coordinator plus worker hosts exchanging
//     tuple batches over TCP, with heartbeat failure detection and
//     recovery/scale-out over the wire — in-process loopback workers
//     for development, cmd/seep-worker daemons for real deployments
//     (see the README's Deployment section).
//
// Elasticity is symmetric on every substrate: bottleneck operators
// split (Job.ScaleOut, or WithPolicy), and under-used partitions merge
// back (Job.ScaleIn, or WithScaleIn) with their key-range state joined
// through the same checkpoint primitives, so long-running jobs shrink
// with their load instead of only growing.
//
// Both are configured with functional options:
//
//	job, err := seep.Live(seep.WithCheckpointInterval(200 * time.Millisecond)).Deploy(topo)
//	job, err := seep.Simulated(seep.WithFTMode(seep.FTRSM), seep.WithSeed(42)).Deploy(topo)
//
// See README.md for a quickstart.
package seep

import (
	"seep/internal/control"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/sim"
	"seep/internal/state"
	"seep/internal/stream"
)

// Data model (§2.2).
type (
	// Key partitions tuples and indexes processing state.
	Key = stream.Key
	// Tuple is the unit of data: logical timestamp, key, payload.
	Tuple = stream.Tuple
)

// KeyOf hashes bytes into the key space.
func KeyOf(b []byte) Key { return stream.KeyOf(b) }

// KeyOfString hashes a string into the key space.
func KeyOfString(s string) Key { return stream.KeyOfString(s) }

// Query model (§2.2): a Topology declares the operators.
type (
	// OpID names a logical operator.
	OpID = plan.OpID
	// InstanceID names one partitioned instance of an operator.
	InstanceID = plan.InstanceID
)

// Operator model (§2.2, §3.1).
type (
	// Operator processes tuples.
	Operator = operator.Operator
	// Managed operators keep their state in a system-owned StateStore:
	// typed cells declared at construction, mutated only through the
	// store, checkpointed/partitioned/restored — fully or incrementally
	// — without operator involvement.
	Managed = operator.Managed
	// TimeDriven operators react to the passage of time (windows).
	TimeDriven = operator.TimeDriven
	// Context is per-invocation metadata.
	Context = operator.Context
	// Emitter sends output tuples.
	Emitter = operator.Emitter
	// Factory builds operator instances, one per partition.
	Factory = operator.Factory
)

// Managed keyed state (§3.1/§3.2).
type (
	// StateStore holds the managed keyed state of one operator instance
	// and owns locking, serialisation, snapshots, restore and dirty-key
	// tracking.
	StateStore = state.Store
	// ValueState is a keyed cell holding one T per tuple key.
	ValueState[T any] = state.Value[T]
	// MapState is a keyed cell holding a string-indexed map of T per
	// tuple key.
	MapState[T any] = state.Map[T]
	// StateCodec serialises cell values; gob is the default, JSON and
	// fixed-width numeric codecs are provided.
	StateCodec[T any] = state.Codec[T]
	// GobCodec is the default cell codec (encoding/gob).
	GobCodec[T any] = state.GobCodec[T]
	// JSONCodec serialises cells as JSON (deterministic for maps).
	JSONCodec[T any] = state.JSONCodec[T]
	// CodecFunc adapts an encode/decode function pair to StateCodec.
	CodecFunc[T any] = state.CodecFunc[T]
	// Int64Codec is a compact fixed-width codec for int64 cells.
	Int64Codec = state.Int64Codec
	// Float64Codec is a compact fixed-width codec for float64 cells.
	Float64Codec = state.Float64Codec
	// StringCodec stores string cells as raw bytes.
	StringCodec = state.StringCodec
)

// NewStateStore returns an empty managed state store. Operators create
// one in their constructor, register cells against it and return it from
// their State method (the Managed interface).
func NewStateStore() *StateStore { return state.NewStore() }

// NewValueState registers a one-value-per-key cell with the store. A nil
// codec defaults to gob.
func NewValueState[T any](s *StateStore, name string, codec StateCodec[T]) *ValueState[T] {
	return state.NewValue[T](s, name, codec)
}

// NewMapState registers a map-per-key cell with the store. A nil codec
// defaults to gob.
func NewMapState[T any](s *StateStore, name string, codec StateCodec[T]) *MapState[T] {
	return state.NewMap[T](s, name, codec)
}

// Operator library.
var (
	// Map applies a function to each tuple (drop with ok=false).
	Map = operator.Map
	// Filter forwards tuples satisfying a predicate.
	Filter = operator.Filter
	// Passthrough forwards tuples unchanged.
	Passthrough = operator.Passthrough
	// WordSplitter tokenises text payloads into keyed words.
	WordSplitter = operator.WordSplitter
)

// Stateful operator library.
type (
	// WordCounter is a (windowed) word frequency counter.
	WordCounter = operator.WordCounter
	// WordCount is WordCounter's output payload.
	WordCount = operator.WordCount
	// KeyedSum is a per-key sum aggregator.
	KeyedSum = operator.KeyedSum
	// TopKReducer ranks items by frequency.
	TopKReducer = operator.TopKReducer
	// TopKMerger merges partial rankings.
	TopKMerger = operator.TopKMerger
	// Ranking is the top-k output payload.
	Ranking = operator.Ranking
	// WindowJoin is a symmetric windowed equi-join.
	WindowJoin = operator.WindowJoin
)

// NewWordCounter returns a word frequency counter (windowMillis 0 =
// continuous).
func NewWordCounter(windowMillis int64) *WordCounter {
	return operator.NewWordCounter(windowMillis)
}

// NewKeyedSum returns a per-key sum aggregator.
func NewKeyedSum(windowMillis int64, extract func(any) (float64, bool)) *KeyedSum {
	return operator.NewKeyedSum(windowMillis, extract)
}

// NewTopKReducer returns a top-k frequency reducer.
func NewTopKReducer(k int, emitEveryMillis int64) *TopKReducer {
	return operator.NewTopKReducer(k, emitEveryMillis)
}

// NewTopKMerger returns a merger of partial rankings.
func NewTopKMerger(k int) *TopKMerger { return operator.NewTopKMerger(k) }

// NewWindowJoin returns a windowed equi-join over two input streams.
func NewWindowJoin(windowMillis int64, encode func(any) []byte, decode func([]byte) any) *WindowJoin {
	return operator.NewWindowJoin(windowMillis, encode, decode)
}

// Simulated cluster runtime (the EC2 substitute).
type (
	// PoolConfig parameterises the VM pool (§5.2).
	PoolConfig = sim.PoolConfig
	// FTMode selects the fault tolerance mechanism.
	FTMode = sim.FTMode
	// Generator produces source tuples.
	Generator = sim.Generator
	// RateFunc is a time-varying source rate.
	RateFunc = sim.RateFunc
)

// Fault tolerance mechanisms (§6.2).
const (
	FTNone           = sim.FTNone
	FTRSM            = sim.FTRSM
	FTUpstreamBackup = sim.FTUpstreamBackup
	FTSourceReplay   = sim.FTSourceReplay
)

// ConstantRate is a fixed tuples/second source profile.
func ConstantRate(tps float64) RateFunc { return sim.ConstantRate(tps) }

// Scaling policy (§5.1) and elastic scale in (§8 future work).
type (
	// Policy holds δ, k and r.
	Policy = control.Policy
	// ScaleInPolicy holds the low-watermark merge policy.
	ScaleInPolicy = control.ScaleInPolicy
)

// DefaultPolicy returns the paper's empirically chosen policy
// (δ=70%, k=2, r=5 s).
func DefaultPolicy() Policy { return control.DefaultPolicy() }

// DefaultScaleInPolicy returns conservative scale-in defaults
// (low watermark 25%, k=3).
func DefaultScaleInPolicy() ScaleInPolicy { return control.DefaultScaleInPolicy() }
