package engine

// One transition. Failure recovery, scale out and scale in are the same
// staged switch-over from N victims to M replacements (§4.2: "operator
// recovery becomes a special case of scale out"; the §3.3 merge is the
// N→1 shape), planned once by core.Manager.Plan and executed by one
// sequence of steps:
//
//	final-retire each live victim → store its capture → plan →
//	reroute → adopt → record
//
// The steps are the ones a distributed worker executes on the
// coordinator's orders (RetireFinal, ApplyReroute and AdoptInstance in
// remote.go, each on the worker that owns the affected state); the
// in-process engine runs them back to back, reroute and adopt under one
// hold of the engine lock — Live is Distributed with one worker. Three
// rules keep every shape exactly-once:
//
//  1. A live victim stops BEFORE its final checkpoint is captured, so
//     the capture reflects everything it ever processed and emitted.
//     There is no post-checkpoint window to reconstruct: tuples in
//     flight to a stopped victim are dropped unprocessed and stay
//     retained upstream for replay. (A failed victim is planned from its
//     last shipped checkpoint instead; upstream retains everything past
//     it.)
//  2. The victims' retained output replays downstream under the identity
//     that stamped it, against the per-sender duplicate-detection
//     watermarks downstream already holds: a lone replacement inherits
//     its victim's watermark (core.Inherit), and merged victims' buffers
//     survive as the product's legacy buffers (state.Checkpoint.Legacy)
//     under the victims' own names until downstream checkpoints
//     acknowledge them.
//  3. Upstream buffers are trimmed to each victim's own final watermark
//     (core.Trim) before they are repartitioned under the new routing,
//     and the new route tables are installed atomically with that
//     repartitioning: every emitted tuple is either already retained when
//     its buffer is repartitioned (and replayed under the new routing,
//     ahead of anything fresh) or routed with the new table. A merge
//     product's watermark per upstream is the victims' MINIMUM
//     (state.MergeCheckpoints), so the replay set is exactly the union
//     of tuples no victim had processed.

import (
	"fmt"
	"iter"

	"seep/internal/core"
	"seep/internal/plan"
	"seep/internal/state"
)

// Recover replaces a failed instance with pi new ones (π=1 serial
// recovery, π≥2 parallel recovery).
func (e *Engine) Recover(inst plan.InstanceID, pi int) error {
	_, err := e.transition([]plan.InstanceID{inst}, pi, true)
	return err
}

// ScaleOut splits a live instance into pi partitioned instances
// (Algorithm 3).
func (e *Engine) ScaleOut(victim plan.InstanceID, pi int) error {
	_, err := e.transition([]plan.InstanceID{victim}, pi, false)
	return err
}

// MergeInstances merges two or more sibling partitions owning adjacent
// key ranges into one instance — scale in.
func (e *Engine) MergeInstances(victims []plan.InstanceID) error {
	if e.cfg.CheckpointInterval <= 0 {
		return fmt.Errorf("engine: scale in requires checkpointing (CheckpointInterval > 0)")
	}
	if err := e.mgr.ValidateMerge(victims); err != nil {
		return err
	}
	product, err := e.transition(victims, 1, false)
	if err != nil {
		return err
	}
	// Ship a fresh checkpoint of the product immediately: it supersedes
	// the plan-time artifact in the backup store, so a failure right
	// after the merge recovers from a self-consistent capture instead of
	// the synthesized one.
	return e.Checkpoint(product[0])
}

// transition runs one switch-over and, once, the abort-to-recovery
// fallback for whatever it stranded: victims it stopped but could not
// plan for, and planned instances it could not build. Either kind is
// live in the manager's graph with a stored checkpoint and hosted by no
// node, so it recovers through the same switch-over exactly as after a
// crash — a failed transition of any kind cannot leave a key range
// unserved (policy-driven transitions have no caller to clean up after
// them). The fallback's own stranded set is reported, not retried.
func (e *Engine) transition(victims []plan.InstanceID, pi int, failure bool) ([]plan.InstanceID, error) {
	if e.cfg.Backup != nil {
		return nil, fmt.Errorf("engine: transitions on a distributed worker are driven by the coordinator")
	}
	newInsts, stranded, err := e.switchOver(victims, pi, failure)
	if len(stranded) > 0 {
		err = fmt.Errorf("engine: transition of %v completed via recovery of %v: %w", victims, stranded, err)
	}
	for _, inst := range stranded {
		if _, _, rerr := e.switchOver([]plan.InstanceID{inst}, 1, true); rerr != nil {
			err = fmt.Errorf("%w; recovery of %s failed: %v", err, inst, rerr)
		}
	}
	return newInsts, err
}

// switchOver executes the staged sequence once. It returns the planned
// replacements, and — with a non-nil error — the instances it stranded
// (see transition).
func (e *Engine) switchOver(victims []plan.InstanceID, pi int, failure bool) (newInsts, stranded []plan.InstanceID, err error) {
	startedAt := e.NowMillis()
	if !failure {
		// Rule 1. Check every victim first so a bad set is rejected with
		// nothing stopped; past that, a failed retire (state that would
		// not encode, a racing Fail) strands what has been stopped so far
		// with its last stored checkpoint.
		e.mu.RLock()
		for _, v := range victims {
			if n := e.nodes[v]; n == nil || n.failed.Load() {
				e.mu.RUnlock()
				return nil, nil, fmt.Errorf("engine: %s is not live", v)
			}
		}
		e.mu.RUnlock()
		for i, v := range victims {
			cp, rerr := e.RetireFinal(v)
			if rerr == nil {
				var host plan.InstanceID
				if host, rerr = e.mgr.BackupTarget(v); rerr == nil {
					rerr = e.storeFull(host, cp)
				}
			}
			if rerr != nil {
				return nil, victims[:i+1], rerr
			}
		}
	}
	tp, err := e.mgr.Plan(victims, pi, failure)
	if err != nil {
		if failure {
			// The victim was already down; nothing new is stranded.
			return nil, nil, err
		}
		return nil, victims, err
	}

	// Build and restore the replacements before exposing them to traffic.
	// One that cannot be built is treated as crashed at birth: the rest
	// of the plan executes around it and it is recovered afterwards.
	var built []*node
	var restored []*state.Checkpoint
	for _, cp := range tp.Checkpoints {
		nn, berr := e.buildReplacement(cp)
		if berr != nil {
			stranded = append(stranded, cp.Instance)
			err = berr
			continue
		}
		built, restored = append(built, nn), append(restored, cp)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.stopAll:
		// The engine is stopping: starting replacement goroutines now
		// would leak past Stop's node snapshot.
		return nil, nil, fmt.Errorf("engine: stopping; %v not replaced", victims)
	default:
	}
	for _, v := range victims {
		// Only a failed victim is still registered (and already stopped).
		if old := e.nodes[v]; old != nil {
			old.failed.Store(true)
			old.stop()
			delete(e.nodes, v)
		}
	}
	// The replacements are registered (not yet started) before the
	// reroute swaps any table, so tuples emitted from then on queue in
	// their input channels behind the replay.
	for _, nn := range built {
		e.nodes[nn.inst] = nn
	}
	replayed := e.rerouteLocked(victims[0].Op, tp.Routing, tp.NewInstances, tp.Inherit, tp.Trims,
		func(b state.Batch) {
			if nn := e.nodes[b.To]; nn != nil {
				nn.replayQueue = append(nn.replayQueue, b)
			}
		})
	for i, nn := range built {
		replayed += e.adoptLocked(nn, restored[i])
	}
	// For failure recovery the clock starts at Fail.
	if t, ok := e.failedAt[victims[0]]; ok {
		startedAt = t
		delete(e.failedAt, victims[0])
	}
	e.mgr.Complete(tp, failure, startedAt, e.NowMillis(), replayed)
	e.scaler.Forget(victims)
	return tp.NewInstances, stranded, err
}

// buildReplacement builds the node for a planned instance and restores
// its checkpoint; the node is neither registered nor running.
func (e *Engine) buildReplacement(cp *state.Checkpoint) (*node, error) {
	spec := e.mgr.Query().Op(cp.Instance.Op)
	if spec == nil {
		return nil, fmt.Errorf("engine: adopt %s: unknown operator", cp.Instance)
	}
	nn, err := e.newNode(cp.Instance, spec)
	if err != nil {
		return nil, err
	}
	// restore-state. The node is not running yet: Restore replaces the
	// output buffer object, invalidating any route-table handles into it,
	// so it always precedes the topology rebuild that re-resolves them.
	nn.mu.Lock()
	err = nn.Restore(cp)
	nn.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return nn, nil
}

// rerouteLocked is the reroute step: install the planned routing for
// op, rename inherited duplicate-detection watermarks on every local
// node, trim local buffers to the victims' final watermarks, and for
// every local upstream node swap the route table, repartition its
// retained output and hand the tuples now owned by newInsts to deliver —
// all under that node's mutex, so a fresh emission can never overtake
// its replayed predecessors (rule 3). Inheritance must be in place on
// every node before a replacement starts re-emitting, which is why the
// adopt step comes strictly after. Returns the number of tuples
// replayed from local buffers.
//
// seep:locks e.mu
func (e *Engine) rerouteLocked(op plan.OpID, routing *state.Routing, newInsts []plan.InstanceID, inherit []core.Inherit, trims []core.Trim, deliver func(state.Batch)) int {
	e.routings[op] = routing
	for _, dn := range e.nodes {
		dn.mu.Lock()
		for _, p := range inherit {
			dn.Inherit(p.Old, p.New)
		}
		dn.mu.Unlock()
	}
	for _, tr := range trims {
		e.TrimUpstream(tr.Up, tr.Owner, tr.TS)
	}
	replayed := 0
	for _, un := range e.nodes {
		if e.mgr.Query().InputIndex(un.inst.Op, op) < 0 {
			continue
		}
		un.mu.Lock()
		un.routes.Store(e.buildRoutes(un))
		replayed += e.dispatchReplay(un.Reroute(un.inst, op, routing, newInsts), un.inst.Op, deliver)
		un.mu.Unlock()
	}
	// Refresh the node-set snapshot and every other table under a new
	// epoch.
	e.rebuildTopology()
	return replayed
}

// adoptLocked is the adopt step for a registered, restored, not yet
// running replacement: the retained output its checkpoint carries
// replays downstream under the current routing — enqueued before the
// node starts, so it precedes anything the instance emits itself — and
// the node starts, consuming its replay queue first. Returns the number
// of tuples replayed downstream.
//
// seep:locks e.mu
func (e *Engine) adoptLocked(nn *node, cp *state.Checkpoint) int {
	routing := func(op plan.OpID) *state.Routing { return e.routings[op] }
	replayed := e.dispatchReplay(state.DownstreamReplay(cp, routing), nn.inst.Op, func(b state.Batch) {
		if tn := e.nodes[b.To]; tn != nil {
			select {
			case tn.in <- b:
			case <-tn.stopped:
			}
		} else if e.remote != nil {
			e.remote.Deliver(b)
		}
	})
	if e.started.Load() {
		e.startNode(nn)
	}
	return replayed
}

// dispatchReplay hands a replay enumeration of tuples emitted by srcOp
// to deliver as one batch per (destination, sender) — a batch carries a
// single From — in first-seen order, preserving each sender's order
// toward each destination. Returns the tuple count.
func (e *Engine) dispatchReplay(seq iter.Seq[state.Replay], srcOp plan.OpID, deliver func(state.Batch)) int {
	type edge struct{ to, from plan.InstanceID }
	q := e.mgr.Query()
	index := make(map[edge]int)
	var batches []state.Batch
	n := 0
	for r := range seq {
		k := edge{r.To, r.From}
		i, ok := index[k]
		if !ok {
			i = len(batches)
			index[k] = i
			batches = append(batches, state.Batch{From: r.From, To: r.To, Input: q.InputIndex(srcOp, r.To.Op)})
		}
		batches[i].Tuples = append(batches[i].Tuples, r.T)
		n++
	}
	for _, b := range batches {
		deliver(b)
	}
	return n
}
