package engine

import (
	"fmt"
	"sync/atomic"

	"seep/internal/state"
)

// Credit-based flow control on the node-link layer. Every node owns a
// credit ledger sized to its input bound: one credit per batch slot,
// taken by the sender before the channel send and returned when the
// batch has been fully processed (not merely dequeued), so the ledger
// bounds queued AND in-flight work. It is the only flow control there
// is: a local emitter takes the credit on the post-unlock send path of
// emitChunk — a stalled sender holds no locks, which is what lets
// checkpoint barriers, reroutes and buffer trims proceed around it —
// and a batch arriving from another process takes it in DeliverLocal,
// on the connection's handler goroutine, so a starved node stops that
// connection being read and the remote sender stalls on its socket.
// Replay traffic (replacement replays, replay queues, adopted buffers)
// bypasses the ledger — recovery must be able to cross a credit-starved
// edge, and its volume is bounded by the retained buffers — and control
// messages (barriers, ticks) ride the separate ctrl queue, consuming no
// credits. Releases saturate at the ledger's capacity, so a bypassed
// batch read from the input queue simply tops it up. Deadlock freedom
// follows from the query being a DAG whose sinks never emit: the
// terminal node always drains, and every stall select also watches the
// receiver's stop and engine shutdown.

// EdgeStats describes backpressure on one node's input edge.
type EdgeStats struct {
	// Queued is the current input queue depth in batches.
	Queued int
	// Peak is the deepest queue observed since start.
	Peak int
	// CreditStalls counts times a sender had to wait for this node's
	// credits.
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

// creditLedger is an atomic counting semaphore saturating at cap. The
// contended case rides a 1-buffered wake channel, but the fast paths —
// acquire with credits available, release with nobody waiting — are a
// CAS each, cheap enough to pay per batch even at batch size 1.
type creditLedger struct {
	avail   atomic.Int64
	waiters atomic.Int64
	cap     int64
	wake    chan struct{}
}

func (l *creditLedger) init(slots int) {
	l.cap = int64(slots)
	l.avail.Store(int64(slots))
	l.wake = make(chan struct{}, 1)
}

func (l *creditLedger) tryAcquire() bool {
	for {
		a := l.avail.Load()
		if a <= 0 {
			return false
		}
		if l.avail.CompareAndSwap(a, a-1) {
			return true
		}
	}
}

// signal wakes one stalled sender when a credit is (still) available.
// The buffered channel makes the wakeup level-triggered: a signal sent
// before the waiter blocks is not lost. Spurious signals are fine —
// woken senders re-run tryAcquire — and a consumed credit needs no
// signal: whoever took it will release (and signal) later. Lost
// wakeups cannot happen because waiters increment `waiters` BEFORE
// re-checking the ledger: a release that missed the waiter count must
// have incremented avail before the waiter's failed re-check, which
// the re-check would then have seen.
func (l *creditLedger) signal() {
	if l.avail.Load() > 0 && l.waiters.Load() > 0 {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// release returns one credit, saturating at the ledger capacity
// (replayed batches bypass acquire, so their release is a no-op at a
// full ledger).
func (l *creditLedger) release() {
	for {
		a := l.avail.Load()
		if a >= l.cap {
			return
		}
		if l.avail.CompareAndSwap(a, a+1) {
			l.signal()
			return
		}
	}
}

// acquireCredit takes one credit toward n, waiting when the ledger is
// empty. It returns false when the receiver stopped or the engine shut
// down while waiting — the caller drops the batch exactly like a send
// to a stopped receiver (output-buffer retention covers replay).
//
// seep:blocking
func (n *node) acquireCredit() bool {
	l := &n.credits
	if l.tryAcquire() {
		return true
	}
	n.creditStalls.Add(1)
	n.e.creditStalls.Add(1)
	l.waiters.Add(1)
	defer l.waiters.Add(-1)
	for {
		if l.tryAcquire() {
			// Cascade: more credits may have landed than wake signals
			// fit in the buffer; pass the baton to the next waiter.
			l.signal()
			return true
		}
		select {
		case <-l.wake:
		case <-n.stopped:
			return false
		case <-n.e.stopAll:
			return false
		}
	}
}

func (n *node) releaseCredit() {
	n.credits.release()
}

// send takes one credit toward n and queues b on its input. With the
// default QueueBound the channel itself then never blocks — stalls
// happen (and are counted) at the credit gate. It returns false, with b
// still the caller's, when the receiver stopped or the engine shut down.
//
// seep:blocking
func (n *node) send(b state.Batch) bool {
	if !n.acquireCredit() {
		return false
	}
	select {
	case n.in <- b:
		return true
	case <-n.stopped:
		n.releaseCredit()
		return false
	}
}

// notePeakDepth samples the input queue depth at batch handling time —
// single writer (the node goroutine), atomic for concurrent snapshot
// readers.
func (n *node) notePeakDepth() {
	if d := int64(len(n.in)); d > n.peakDepth.Load() {
		n.peakDepth.Store(d)
	}
}

// BackpressureSnapshot reports per-edge queue depth and credit gauges
// plus aggregated spill counters. Off the hot path.
func (e *Engine) BackpressureSnapshot() BackpressureStats {
	out := BackpressureStats{CreditStalls: e.creditStalls.Value()}
	set := e.set.Load()
	if set == nil {
		return out
	}
	out.Edges = make(map[string]EdgeStats, len(set.nodes))
	for _, n := range set.nodes {
		es := EdgeStats{
			Queued:       len(n.in),
			Peak:         int(n.peakDepth.Load()),
			CreditStalls: n.creditStalls.Value(),
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
