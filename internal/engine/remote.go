package engine

// Distributed-runtime support: the engine's node-link layer is pluggable
// — route tables resolve each downstream instance either to a local
// *node (the in-process zero-copy batch path) or to the Remote link
// registered here. The coordinator drives topology transitions over the
// wire through RetireFinal / ApplyReroute / AdoptInstance: the steps of
// the one transition sequence (core.Sequencer), each run on the worker that owns
// the affected state and sequenced by the coordinator.

import (
	"fmt"

	"seep/internal/core"
	"seep/internal/plan"
	"seep/internal/state"
)

// SetRemote registers the link layer used to reach instances hosted by
// other processes. Call before Start.
func (e *Engine) SetRemote(r Remote) {
	e.mu.Lock()
	e.remote = r
	e.rebuildTopology()
	e.mu.Unlock()
}

// DeliverLocal queues a batch received from the wire on the hosted
// instance b.To, waiting for room in that node's input exactly like a
// local sender. On true the engine owns b (it is recycled after processing).
// It returns false, with b still the caller's, when the instance is not
// hosted here or stopped while the caller waited.
//
// seep:blocking
func (e *Engine) DeliverLocal(b state.Batch) bool {
	n := e.hosted(b.To)
	return n != nil && n.send(b)
}

// Hosts reports whether inst is hosted here and running — whether
// DeliverLocal would queue toward it rather than refuse.
func (e *Engine) Hosts(inst plan.InstanceID) bool { return e.hosted(inst) != nil }

func (e *Engine) hosted(inst plan.InstanceID) *node {
	set := e.set.Load()
	if set == nil {
		return nil
	}
	if n := set.byInst[inst]; n != nil && !n.failed.Load() {
		return n
	}
	return nil
}

// TrimUpstream applies an acknowledgement watermark: owner's checkpoint
// is safely stored, so the local node hosting up may trim its retained
// output for owner through ts (Algorithm 1 line 4; in the distributed
// runtime the watermark arrives from the coordinator over the wire).
// When up is a retired merge victim, the trim lands on the legacy buffer
// its merge product hosts.
func (e *Engine) TrimUpstream(up, owner plan.InstanceID, ts int64) {
	set := e.set.Load()
	if set == nil {
		return
	}
	if n := set.byInst[up]; n != nil {
		n.mu.Lock()
		n.Buffer.TrimInstance(owner, ts)
		n.mu.Unlock()
		return
	}
	if hn := set.legacyHosts[up]; hn != nil {
		hn.mu.Lock()
		if lb := hn.Legacy[up]; lb != nil {
			lb.TrimInstance(owner, ts)
		}
		hn.mu.Unlock()
	}
}

// ApplyReroute runs the reroute step of a coordinator-planned
// transition on this worker (see rerouteLocked): replays leave through
// the Remote link, whose per-destination FIFO keeps them ahead of fresh
// emissions, and reach instances not yet deployed via the hosting
// worker's stash. The coordinator sequences Deploy after every worker's
// reroute acknowledgement. Returns the number of tuples replayed from
// local buffers.
func (e *Engine) ApplyReroute(op plan.OpID, routing *state.Routing, newInsts []plan.InstanceID, inherit []core.Inherit, trims []core.Trim) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rerouteLocked(op, routing, newInsts, inherit, trims, func(b state.Batch) {
		if e.remote != nil {
			e.remote.Deliver(b)
		}
	})
}

// AdoptInstance runs the adopt step for a replacement instance planned
// elsewhere (see adoptLocked): the node is built, restored from its
// checkpoint, handed the stashed replay (batches that arrived from
// upstream workers before the deployment) and started. Returns the
// number of tuples replayed.
func (e *Engine) AdoptInstance(cp *state.Checkpoint, routing *state.Routing, replay []state.Batch) (int, error) {
	nn, err := e.buildReplacement(cp)
	if err != nil {
		return 0, err
	}
	nn.replayQueue = replay
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.stopAll:
		return 0, fmt.Errorf("engine: stopping; %s not adopted", nn.inst)
	default:
	}
	if _, dup := e.nodes[nn.inst]; dup {
		return 0, fmt.Errorf("engine: %s already hosted", nn.inst)
	}
	e.nodes[nn.inst] = nn
	if routing != nil {
		e.routings[nn.inst.Op] = routing
	}
	e.rebuildTopology()
	replayed := e.adoptLocked(nn, cp)
	for _, b := range replay {
		replayed += len(b.Tuples)
	}
	return replayed, nil
}

// Retire stops a locally hosted instance and removes it from the
// topology without capturing anything — the coordinator's best-effort
// stop before it recovers an instance from the store. The instance's
// retained output buffer goes with it; its backed-up checkpoint is the
// authoritative copy.
func (e *Engine) Retire(inst plan.InstanceID) error {
	e.mu.Lock()
	n := e.nodes[inst]
	if n == nil {
		e.mu.Unlock()
		return fmt.Errorf("engine: %s is not hosted here", inst)
	}
	n.failed.Store(true)
	delete(e.nodes, inst)
	e.rebuildTopology()
	e.mu.Unlock()
	n.stop()
	return nil
}

// RetireFinal stops a hosted instance FIRST — queued input is dropped
// and stays retained upstream — then captures its final checkpoint once
// the goroutine has exited and removes the node from the topology. The
// capture reflects everything the instance ever processed and emitted,
// so a transition planned from it has no post-checkpoint window to
// reconstruct (rule 1 in core.Sequencer). The caller ships the returned
// checkpoint to the authoritative store.
func (e *Engine) RetireFinal(inst plan.InstanceID) (*state.Checkpoint, error) {
	e.mu.Lock()
	n := e.nodes[inst]
	if n == nil || n.failed.Load() {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: %s is not hosted here", inst)
	}
	n.failed.Store(true)
	running := e.started.Load()
	e.mu.Unlock()
	n.stop()
	if running {
		<-n.done
	}
	n.mu.Lock()
	n.NeedFull = true // a delta cannot seed a transition
	n.mu.Unlock()
	cp := n.captureCheckpoint()
	e.mu.Lock()
	delete(e.nodes, inst)
	e.rebuildTopology()
	e.mu.Unlock()
	if cp == nil {
		return nil, fmt.Errorf("engine: %s retired but its final state failed to encode", inst)
	}
	return cp, nil
}

// TotalProcessed returns the total number of tuples processed by all
// hosted nodes — the settle signal distributed quiesce polls across
// workers.
func (e *Engine) TotalProcessed() uint64 { return e.totalProcessed() }

// Local returns the instances hosted by this engine, in deterministic
// order.
func (e *Engine) Local() []plan.InstanceID {
	set := e.set.Load()
	if set == nil {
		return nil
	}
	out := make([]plan.InstanceID, 0, len(set.nodes))
	for _, n := range set.nodes {
		if !n.failed.Load() {
			out = append(out, n.inst)
		}
	}
	return out
}
