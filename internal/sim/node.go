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
	// replayed counts every tuple sent under the tracker.
	replayed int
	onDone   func()
	fired    bool
}

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

// delivery is one tuple in flight to a node: a one-tuple batch, so the
// VM cost model charges per tuple, plus what only the simulator tracks.
// The node that processes or drops it recycles the batch.
type delivery struct {
	state.Batch
	// tracker counts the tuple toward a transition's replay (nil on live
	// traffic).
	tracker *replayTracker
	// force bypasses duplicate detection: source-replay recovery rolls
	// the whole downstream pipeline back, so intermediate operators must
	// re-process tuples they have already seen.
	force bool
}

// Node hosts one operator instance on one VM inside the simulated
// cluster. All methods run inside simulator events (single-threaded).
//
// The node runs the same node step as the live engine — state.Instance's
// Admit on receive and Emit on send (duplicate detection against
// per-upstream acknowledgements, stamping, buffer retention, routing by
// key range) — and adds only what is simulated: the VM that charges each
// tuple's CPU cost, and the virtual network delay its output crosses.
type Node struct {
	c    *Cluster
	inst plan.InstanceID
	spec *plan.OpSpec
	vm   *VM
	op   operator.Operator
	// Instance is the externalised state the management primitives
	// operate on (processing store, acks τo, βo, output clock, inherited
	// legacy buffers, checkpoint numbering). Store is nil on a stateless
	// node.
	state.Instance
	// hops is the node's downstream fan-out (Cluster.rebuildHops); outs
	// receives the batches of one emission.
	hops []state.Hop
	outs []state.Out

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
		Instance: state.NewInstance(operator.StoreOf(op)),
	}
}

// receive schedules the processing of a delivered tuple on the node's VM.
func (n *Node) receive(d delivery) {
	if n.failed || n.removed {
		d.done()
		return
	}
	if n.holdingLive && d.tracker == nil {
		n.held = append(n.held, d)
		return
	}
	cost := n.spec.CostPerTuple
	if n.vm.Exec(cost, func() { n.process(d) }) < 0 {
		d.done()
	}
}

// done releases a delivery once it is processed or dropped (a dropped
// tuple stays retained upstream for replay): the batch is recycled and
// the tuple counted off its replay tracker.
func (d delivery) done() {
	d.Recycle()
	d.tracker.dec()
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
// instance — are discarded by Admit, which is what makes replay after
// restore exactly-once with respect to operator state; a forced
// source-replay delivery is processed regardless.
func (n *Node) process(d delivery) {
	defer d.done()
	if n.failed || n.removed {
		return
	}
	t := d.Tuples[0]
	if len(n.Admit(d.Batch)) == 0 && !d.force {
		n.c.duplicatesDropped.Inc()
		return
	}
	n.processed++
	if n.spec.Role == plan.RoleSink {
		n.c.observeSink(n, t)
		return
	}
	if n.op == nil {
		return
	}
	n.curBorn = t.Born
	n.op.OnTuple(operator.Context{Now: n.c.sim.Now(), Input: d.Input}, t, n.emit)
}

// emit runs the node step's emit for one output tuple — stamp, retain,
// one batch per downstream operator — and sends each batch across the
// network.
func (n *Node) emit(key stream.Key, payload any) {
	n.outs = n.Emit(n.outs[:0], n.inst, []state.Staged{{Key: key, Payload: payload, Born: n.curBorn}}, n.hops)
	for _, o := range n.outs {
		n.c.deliver(delivery{Batch: o.Batch})
	}
	clear(n.outs)
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
