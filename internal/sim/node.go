package sim

import (
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// replayTracker counts outstanding replayed tuples during a recovery or
// scale out; when every replayed tuple has been processed (or discarded
// as a duplicate), the operation is complete and its duration recorded.
type replayTracker struct {
	outstanding int
	onDone      func()
	fired       bool
}

func (rt *replayTracker) add(n int) { rt.outstanding += n }

func (rt *replayTracker) dec() {
	if rt == nil {
		return
	}
	rt.outstanding--
	if rt.outstanding <= 0 && !rt.fired {
		rt.fired = true
		if rt.onDone != nil {
			rt.onDone()
		}
	}
}

// delivery is one tuple in flight to a node.
type delivery struct {
	from    plan.InstanceID
	input   int // logical input-stream index at the receiver
	t       stream.Tuple
	tracker *replayTracker
	// force bypasses duplicate detection: source-replay recovery rolls
	// the whole downstream pipeline back, so intermediate operators must
	// re-process tuples they have already seen.
	force bool
}

// Node hosts one operator instance on one VM inside the simulated
// cluster. All methods run inside simulator events (single-threaded).
//
// The node implements the runtime side of the paper's state management:
// it tracks per-upstream-instance acknowledgements for duplicate
// detection (§3.2 restore-state), retains output tuples in its buffer
// state for downstream recovery (§3.1), takes periodic checkpoints and
// backs them up (Algorithm 1), and replays buffers on demand.
type Node struct {
	c    *Cluster
	inst plan.InstanceID
	spec *plan.OpSpec
	vm   *VM
	op   operator.Operator
	// Instance is the externalised state the management primitives
	// operate on (processing store, acks, τo, βo, output clock, inherited
	// legacy buffers, checkpoint numbering). Store is nil on a stateless
	// node.
	state.Instance

	failed  bool
	removed bool
	// holdingLive makes the node buffer non-replay deliveries until its
	// replay completes. This is the receiving-side equivalent of
	// Algorithm 3's stop-operator(u): replayed tuples carry old
	// timestamps, so a live tuple slipping in ahead of the replay would
	// advance the duplicate-detection watermark past the whole replay
	// set and silently discard it.
	holdingLive bool
	held        []delivery
	// curBorn propagates the lineage birth time of the tuple currently
	// being processed onto emitted tuples.
	curBorn int64
	// processed counts tuples reflected in state (for tests).
	processed uint64
}

func newNode(c *Cluster, inst plan.InstanceID, spec *plan.OpSpec, vm *VM, op operator.Operator) *Node {
	return &Node{
		c:        c,
		inst:     inst,
		spec:     spec,
		vm:       vm,
		op:       op,
		Instance: state.NewInstance(operator.StoreOf(op), len(c.mgr.Query().Upstream(inst.Op))),
	}
}

// receive schedules the processing of a delivered tuple on the node's VM.
func (n *Node) receive(d delivery) {
	if n.failed || n.removed {
		d.tracker.dec()
		return
	}
	if n.holdingLive && d.tracker == nil {
		n.held = append(n.held, d)
		return
	}
	cost := n.spec.CostPerTuple
	if n.vm.Exec(cost, func() { n.process(d) }) < 0 {
		d.tracker.dec()
	}
}

// releaseHeld ends the replay phase: held live deliveries are admitted
// in arrival order.
func (n *Node) releaseHeld() {
	n.holdingLive = false
	held := n.held
	n.held = nil
	for _, d := range held {
		n.receive(d)
	}
}

// process runs the operator function on one tuple. Duplicate tuples —
// timestamps at or below the acknowledged position of their upstream
// instance — are discarded, which is what makes replay after restore
// exactly-once with respect to operator state.
func (n *Node) process(d delivery) {
	defer d.tracker.dec()
	if n.failed || n.removed {
		return
	}
	if d.t.TS <= n.Acks[d.from] {
		if !d.force {
			n.c.duplicatesDropped.Inc()
			return
		}
	} else {
		n.Acks[d.from] = d.t.TS
		n.TS.Advance(d.input, d.t.TS)
	}
	n.processed++
	if n.spec.Role == plan.RoleSink {
		n.c.observeSink(n, d.t)
		return
	}
	if n.op == nil {
		return
	}
	n.curBorn = d.t.Born
	n.op.OnTuple(operator.Context{Now: n.c.sim.Now(), Input: d.input}, d.t, n.emit)
}

// emit stamps, buffers and routes one output tuple to every logical
// downstream operator.
func (n *Node) emit(key stream.Key, payload any) {
	out := stream.Tuple{TS: n.OutClock.Next(), Key: key, Born: n.curBorn, Payload: payload}
	if out.Born == 0 {
		out.Born = n.c.sim.Now()
	}
	n.c.route(n, out)
}

// onTime drives TimeDriven operators (window flushes).
func (n *Node) onTime() {
	if n.failed || n.removed || n.op == nil {
		return
	}
	td, ok := n.op.(operator.TimeDriven)
	if !ok {
		return
	}
	n.curBorn = n.c.sim.Now()
	td.OnTime(n.c.sim.Now(), n.emit)
}
