package engine

import (
	"fmt"

	"seep/internal/state"
)

// Flow control on the node-link layer is each node's input channel. It
// holds slots−1 batches, slots = max(QueueBound/BatchSize, 1) — an
// unbuffered handoff at one slot — so with the batch the node goroutine
// has in hand at most slots batches are queued or in flight toward a
// node, whoever sent them. A local emitter sends on the post-unlock
// path of emitChunk — a stalled sender holds no locks, which is what
// lets checkpoint barriers, reroutes and buffer trims proceed around
// it — and a batch arriving from another process is sent in
// DeliverLocal, on the connection's handler goroutine, so a full node
// stops that connection being read and the remote sender stalls on its
// socket. Replays sent onto the channel count toward the same bound;
// control messages (barriers, ticks) ride the separate ctrl queue.
// Deadlock freedom follows from the query being a DAG whose sinks never
// emit: the terminal node always drains, and every stall select also
// watches the receiver's stop and engine shutdown.

// EdgeStats describes backpressure on one node's input edge.
type EdgeStats struct {
	// Queued is the current input queue depth in batches.
	Queued int
	// Peak is the deepest queue observed since start.
	Peak int
	// CreditStalls counts times a sender had to wait for room in this
	// node's input.
	CreditStalls uint64
}

// BackpressureStats is the engine-wide backpressure and spill snapshot.
type BackpressureStats struct {
	// CreditStalls counts every sender wait on any edge.
	CreditStalls uint64
	// QueueDepth is the current total queued batches across nodes.
	QueueDepth int
	// PeakQueueDepth is the deepest single input queue observed.
	PeakQueueDepth int
	// Edges maps instance names to their per-edge gauges.
	Edges map[string]EdgeStats
	// Spill aggregates the managed stores' spill counters.
	Spill state.SpillStats
}

// Add folds other into s (cross-worker aggregation).
func (s *BackpressureStats) Add(o BackpressureStats) {
	s.CreditStalls += o.CreditStalls
	s.QueueDepth += o.QueueDepth
	if o.PeakQueueDepth > s.PeakQueueDepth {
		s.PeakQueueDepth = o.PeakQueueDepth
	}
	for k, v := range o.Edges {
		if s.Edges == nil {
			s.Edges = make(map[string]EdgeStats)
		}
		s.Edges[k] = v
	}
	s.Spill.Add(o.Spill)
}

// send queues b on n's input. When the channel is full it counts a
// stall and waits, holding no lock. It returns false, with b still the
// caller's, when the receiver stopped or the engine shut down.
//
// seep:blocking
func (n *node) send(b state.Batch) bool {
	select {
	case n.in <- b:
		return true
	default:
	}
	n.stalls.Add(1)
	n.e.stalls.Add(1)
	select {
	case n.in <- b:
		return true
	case <-n.stopped:
		return false
	case <-n.e.stopAll:
		return false
	}
}

// held counts the batches n holds: queued on its input or in the node
// goroutine's hands.
func (n *node) held() int {
	h := len(n.in)
	if n.busy.Load() {
		h++
	}
	return h
}

// notePeakDepth samples the input queue depth at batch handling time —
// single writer (the node goroutine), atomic for concurrent snapshot
// readers.
func (n *node) notePeakDepth() {
	if d := int64(len(n.in)); d > n.peakDepth.Load() {
		n.peakDepth.Store(d)
	}
}

// BackpressureSnapshot reports per-edge queue depth and stall gauges
// plus aggregated spill counters. Off the hot path.
func (e *Engine) BackpressureSnapshot() BackpressureStats {
	out := BackpressureStats{CreditStalls: e.stalls.Value()}
	set := e.set.Load()
	if set == nil {
		return out
	}
	out.Edges = make(map[string]EdgeStats, len(set.nodes))
	for _, n := range set.nodes {
		es := EdgeStats{
			Queued:       len(n.in),
			Peak:         int(n.peakDepth.Load()),
			CreditStalls: n.stalls.Value(),
		}
		out.QueueDepth += es.Queued
		if es.Peak > out.PeakQueueDepth {
			out.PeakQueueDepth = es.Peak
		}
		out.Edges[fmt.Sprintf("%s/%d", n.inst.Op, n.inst.Part)] = es
		if n.Store != nil {
			out.Spill.Add(n.Store.SpillStats())
		}
	}
	return out
}
