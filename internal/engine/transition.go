package engine

// Transitions. The live engine executes core.Sequencer's actions inline
// (the sequence and the rules that keep it exactly-once are documented
// there). They are the steps a distributed worker executes on the
// coordinator's orders — RetireFinal, ApplyReroute and AdoptInstance in
// remote.go — run back to back here, reroute and adopt under one hold of
// the engine lock: Live is Distributed with one worker.

import (
	"cmp"
	"errors"
	"fmt"
	"iter"

	"seep/internal/core"
	"seep/internal/plan"
	"seep/internal/state"
)

// Recover replaces a failed instance with pi new ones (π=1 serial
// recovery, π≥2 parallel recovery).
func (e *Engine) Recover(inst plan.InstanceID, pi int) error {
	return e.transition(core.Recovery, []plan.InstanceID{inst}, pi)
}

// ScaleOut splits a live instance into pi partitioned instances
// (Algorithm 3).
func (e *Engine) ScaleOut(victim plan.InstanceID, pi int) error {
	return e.transition(core.ScaleOut, []plan.InstanceID{victim}, pi)
}

// MergeInstances merges two or more sibling partitions owning adjacent
// key ranges into one instance — scale in.
func (e *Engine) MergeInstances(victims []plan.InstanceID) error {
	if e.cfg.CheckpointInterval <= 0 {
		return fmt.Errorf("engine: scale in requires checkpointing (CheckpointInterval > 0)")
	}
	return e.transition(core.ScaleIn, victims, 1)
}

// transition runs one sequence to its Done. Live victims are checked
// first, so a bad set is refused with nothing stopped; a failed victim's
// record starts at Fail.
func (e *Engine) transition(kind core.Kind, victims []plan.InstanceID, pi int) error {
	if e.cfg.Backup != nil {
		return fmt.Errorf("engine: transitions on a distributed worker are driven by the coordinator")
	}
	startedAt := e.NowMillis()
	e.mu.RLock()
	for _, v := range victims {
		if n := e.nodes[v]; kind == core.Recovery && n != nil && n.failed.Load() {
			startedAt = n.failedAt
		} else if kind != core.Recovery && (n == nil || n.failed.Load()) {
			e.mu.RUnlock()
			return fmt.Errorf("engine: %s is not live", v)
		}
	}
	e.mu.RUnlock()
	sq, err := core.NewSequencer(e.mgr, e.scaler, kind, victims, pi, startedAt)
	if err != nil {
		return err
	}
	return e.run(sq)
}

// run executes a sequence's actions inline until its Done; a Recover
// runs one Fallback sequence per stranded instance.
func (e *Engine) run(sq *core.Sequencer) error {
	built := make(map[plan.InstanceID]*node)
	var errs []error
	for queue := sq.Start(); len(queue) > 0; queue = queue[1:] {
		switch a := queue[0]; a.Kind {
		case core.Retire:
			ev := core.Event{Kind: core.Retired}
			for _, v := range a.Insts {
				cp, err := e.RetireFinal(v)
				if err == nil {
					err = e.backup.Ship(cp)
				}
				ev.Err = cmp.Or(ev.Err, err)
			}
			queue = append(queue, sq.Step(ev)...)
		case core.Place:
			ev := core.Event{Kind: core.Placed}
			for _, cp := range a.Plan.Checkpoints {
				nn, err := e.buildReplacement(cp)
				if ev.Err = cmp.Or(ev.Err, err); err == nil {
					built[cp.Instance] = nn
					ev.Insts = append(ev.Insts, cp.Instance)
				}
			}
			queue = append(queue, sq.Step(ev)...)
		case core.Reroute:
			queue = append(queue, e.switchOver(sq, a.Plan, built)...)
		case core.Checkpoint:
			errs = append(errs, e.Checkpoint(a.Insts[0]))
		case core.Recover:
			for _, inst := range a.Insts {
				fb, _ := core.NewSequencer(e.mgr, e.scaler, core.Fallback, []plan.InstanceID{inst}, 1, e.NowMillis())
				errs = append(errs, e.run(fb))
			}
		case core.Done:
			return errors.Join(append([]error{a.Err}, errs...)...)
		}
	}
	return nil
}

// switchOver executes a Reroute and the Adopt it releases under one hold
// of e.mu: the replacements are registered (not yet started) before the
// reroute swaps any table, so tuples emitted from then on queue in their
// input channels behind the replay. Returns the actions that follow.
func (e *Engine) switchOver(sq *core.Sequencer, tp *core.Transition, built map[plan.InstanceID]*node) []core.Action {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.stopAll:
		// Starting replacement goroutines now would leak past Stop's node
		// snapshot.
		return sq.Step(core.Event{Kind: core.Rerouted, Err: fmt.Errorf("engine: stopping; %v not replaced", tp.Victims)})
	default:
	}
	for _, v := range tp.Victims {
		// Only a failed victim is still registered (and already stopped).
		if old := e.nodes[v]; old != nil {
			old.failed.Store(true)
			old.stop()
			delete(e.nodes, v)
		}
	}
	for _, nn := range built {
		e.nodes[nn.inst] = nn
	}
	replayed := e.rerouteLocked(tp.Victims[0].Op, tp.Routing, tp.NewInstances, tp.Inherit, tp.Trims, func(b state.Batch) {
		if nn := e.nodes[b.To]; nn != nil {
			nn.replayQueue = append(nn.replayQueue, b)
		}
	})
	next := sq.Step(core.Event{Kind: core.Rerouted, Replayed: replayed})
	if len(next) == 0 || next[0].Kind != core.Adopt {
		return next
	}
	ev := core.Event{Kind: core.Adopted, Insts: next[0].Insts}
	for _, cp := range tp.Checkpoints {
		if nn := built[cp.Instance]; nn != nil {
			ev.Replayed += e.adoptLocked(nn, cp)
		}
	}
	ev.At = e.NowMillis()
	return sq.Step(ev)
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
// its replayed predecessors (rule 3 in core.Sequencer). Inheritance must
// be in place on every node before a replacement starts re-emitting,
// which is why the adopt step comes strictly after. Returns the number
// of tuples replayed from local buffers.
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
// running replacement: the retained output its checkpoint carries is
// split under the current routing into the node's downstream replay,
// which the node goroutine sends before anything the instance emits
// itself, and the node starts, consuming its replay queue next. Returns
// the number of tuples replayed downstream.
//
// seep:locks e.mu
func (e *Engine) adoptLocked(nn *node, cp *state.Checkpoint) int {
	routing := func(op plan.OpID) *state.Routing { return e.routings[op] }
	replayed := e.dispatchReplay(state.DownstreamReplay(cp, routing), nn.inst.Op, func(b state.Batch) {
		nn.replayOut = append(nn.replayOut, b)
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
