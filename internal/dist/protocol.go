// Package dist is the distributed runtime: a coordinator that owns the
// query plan, the authoritative checkpoint/backup store and the scaling
// decisions, plus workers that each host a subset of the operator
// instances on a live engine and exchange tuple batches directly over
// the TCP transport. It is the deployment substrate the paper assumes —
// operator instances on separate VMs, a logically centralised query
// manager (§2.2/§5), heartbeat failure detection and recovery through
// the same integrated scale-out algorithm as the in-process runtimes.
//
// Split of responsibilities:
//
//   - Data path: worker ↔ worker batch frames; each worker's engine
//     routes through its normal route tables, with instances hosted
//     elsewhere reached through the engine's Remote link (engine/remote.go).
//   - Checkpoints: workers capture barriers locally and ship checkpoints
//     — full ones, or deltas the coordinator folds — to the coordinator
//     (the stable store); the coordinator answers with one MsgTrim of
//     acknowledgement trims per upstream host.
//   - Failure detection: the coordinator heartbeats every worker over
//     the transport; a missed-heartbeat worker is declared down and its
//     stateful instances recovered via core.Manager.Plan, the same
//     planner the in-process runtimes use.
//   - Scaling: workers stream utilisation reports; the coordinator
//     feeds them and the heartbeat events through ONE event loop into
//     control.Detector, so scale-out and recovery decisions serialise.
package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"seep/internal/control"
	"seep/internal/controlplane"
	"seep/internal/core"
	"seep/internal/engine"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/transport"
)

// MsgKind discriminates coordinator/worker control messages (carried in
// transport control frames).
type MsgKind uint8

const (
	// MsgAssign (coordinator → worker): the deployment plan — topology
	// name, engine parameters, and the placement of every instance.
	MsgAssign MsgKind = 1 + iota
	// MsgStart (coordinator → worker): start the engine.
	MsgStart
	// MsgStop (coordinator → worker): stop the engine; the worker stays
	// up for a future assignment.
	MsgStop
	// MsgReroute (coordinator → worker): the reroute step of a transition
	// — install a new routing for one operator, inherit duplicate-
	// detection watermarks, trim, repartition and replay local upstream
	// buffers.
	MsgReroute
	// MsgDeploy (coordinator → worker): adopt a replacement instance
	// from a partitioned checkpoint.
	MsgDeploy
	// MsgRetire (coordinator → worker): stop the locally hosted Victims;
	// with Final, stop → capture → ship (a scaling transition's victims).
	MsgRetire
	// MsgDie (coordinator → worker): crash-stop the whole worker (used
	// by Job.Fail to model a VM failure).
	MsgDie
	// MsgAck (worker → coordinator): sequence-correlated reply to
	// Assign/Reroute/Deploy/Retire.
	MsgAck
	// MsgShip (worker → coordinator): a checkpoint for the authoritative
	// backup store — a full one, or a delta (Base, Deleted).
	MsgShip
	// MsgReport (worker → coordinator): utilisation reports for the
	// bottleneck detector, piggybacking worker-level counters.
	MsgReport
	// MsgReattach (worker → coordinator): the worker's actual inventory —
	// hosted instances and running flag — sent in reply to MsgResume
	// (Seq-correlated) or unsolicited (Seq 0) when an orphaned worker
	// dials a standby coordinator.
	MsgReattach
	// MsgResume (coordinator → worker): a reborn coordinator announces
	// itself; the worker re-homes its control link and replies with
	// MsgReattach.
	MsgResume
	// MsgTrim (coordinator → worker): a stored checkpoint's acknowledgement
	// trims for the upstream instances this worker hosts (Algorithm 1 line
	// 4, over the wire), in TrimAcks.
	MsgTrim
	// MsgBarrier (coordinator → worker): checkpoint the Victims now — the
	// §3.2 checkpoint barrier, always a full checkpoint.
	MsgBarrier
)

// WorkerStats is the worker-level counter snapshot piggybacked on
// reports, so Job.Metrics aggregates external workers too.
type WorkerStats struct {
	SinkTuples uint64
	DupDropped uint64
	Transport  transport.Stats
	// Backpressure snapshots the hosted engine's credit-stall, queue-depth
	// and state-spill gauges.
	Backpressure engine.BackpressureStats
	// CheckpointsRefused counts the hosted engine's full checkpoints
	// that were captured but never stored (engine.CheckpointsRefused).
	CheckpointsRefused uint64
}

// Control is the one wire struct for every control message; unused
// fields stay zero. It is gob-encoded — routings and other
// codec-dependent state travel as pre-encoded byte blobs, an encoded
// checkpoint behind the gob message (encodeControl).
type Control struct {
	Kind MsgKind
	// Seq correlates a request with its MsgAck.
	Seq uint64
	// From is the sender worker's listener address (its identity).
	From string

	// MsgAssign.
	Topology   string
	CoordAddr  string
	Placements []controlplane.Placement
	// Engine is the configuration of the worker's engine, as the
	// coordinator was given it. Hosted and Backup are nil on the wire (gob
	// skips both); the worker wires its own.
	Engine            engine.Config
	ReportEveryMillis int64
	// StandbyAddr (MsgAssign, MsgResume) is where an orphaned worker
	// re-dials after coordinator death; empty disables the redial loop.
	StandbyAddr string
	// DetectMillis (MsgAssign, MsgResume) is the coordinator's failure
	// detection window; the worker heartbeats its coordinator link at the
	// same cadence the coordinator heartbeats workers.
	DetectMillis int64

	// MsgStart. CoordNow is the coordinator's job clock (ms since job
	// start) at send time; the worker offsets its engine clock by it so
	// Born stamps and latency observations across workers share the
	// coordinator's frame.
	CoordNow int64

	// MsgReroute / MsgDeploy / MsgRetire / MsgShip. A reroute carries the
	// worker-visible half of the transition's core.Transition plan.
	Op         plan.OpID
	Routing    []byte
	New        []controlplane.Placement
	Checkpoint []byte
	// Victims are the instances a reroute supersedes, a retire stops, or
	// a barrier checkpoints.
	Victims []plan.InstanceID
	// Inherit renames duplicate-detection watermarks on every worker
	// before the replacement deploys (1→1 transitions).
	Inherit []core.Inherit
	// TrimAcks are trim watermarks for local upstream buffers: on a
	// reroute the victims' final ones, applied before its repartition; on
	// MsgTrim a stored checkpoint's acknowledgements.
	TrimAcks []core.Trim
	// Final, on MsgRetire, asks the worker to stop the instance FIRST
	// and ship its final checkpoint — the capture then reflects
	// everything the instance ever processed and emitted, leaving no
	// post-checkpoint window for scale-out/scale-in transitions.
	Final bool
	// Base and Deleted, on MsgShip, are the shipped checkpoint's own
	// (state.Checkpoint.Base): with either set it is a delta, whose
	// processing state is the keys changed since the stored checkpoint
	// numbered Base, and Deleted lists, ascending, the keys removed since.
	// A ship with neither is a full checkpoint.
	Base    uint64
	Deleted []stream.Key

	// MsgAck.
	Err      string
	Replayed int

	// MsgReattach: the worker's actual inventory, reconciled against the
	// replayed journal.
	Hosted  []plan.InstanceID
	Running bool

	// MsgReport.
	Reports []control.Report
	Stats   WorkerStats
}

// encodeControl gob-encodes c — except Checkpoint, the one field that
// runs to megabytes: it travels raw behind the gob message, where gob
// would have copied it twice on each side.
func encodeControl(c *Control) ([]byte, error) {
	head := *c
	head.Checkpoint = nil
	var buf bytes.Buffer
	buf.Grow(len(c.Checkpoint) + 512)
	if err := gob.NewEncoder(&buf).Encode(&head); err != nil {
		return nil, fmt.Errorf("dist: encode control: %w", err)
	}
	buf.Write(c.Checkpoint)
	return buf.Bytes(), nil
}

// encodeShip encodes c with cp marshalled behind it, the layout
// encodeControl gives c.Checkpoint, into one buffer of exactly the
// message's size: a ship's checkpoint is encoded once and copied nowhere.
func encodeShip(c *Control, cp *state.Checkpoint, codec state.PayloadCodec) ([]byte, error) {
	head, err := encodeControl(c)
	if err != nil {
		return nil, err
	}
	return state.MarshalCheckpointAfter(head, cp, codec)
}

// decodeControl reads a message written by encodeControl. Checkpoint
// aliases b, which the caller must own.
func decodeControl(b []byte) (*Control, error) {
	var c Control
	// gob reads a bytes.Reader (an io.ByteReader) message by message
	// without buffering ahead, so what is left is the checkpoint.
	r := bytes.NewReader(b)
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("dist: decode control: %w", err)
	}
	if r.Len() > 0 {
		c.Checkpoint = b[len(b)-r.Len():]
	}
	return &c, nil
}

func decodeRouting(b []byte) (*state.Routing, error) {
	return state.DecodeRouting(stream.NewDecoder(b))
}
