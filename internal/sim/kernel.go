// Package sim is the cluster substrate that replaces the paper's Amazon
// EC2 deployment: a deterministic discrete-event simulator with a virtual
// clock, a VM model with CPU capacity, a pre-allocated VM pool that masks
// IaaS provisioning delays (§5.2), crash-stop failure injection, and a
// tuple-level dataflow runtime that executes real operator code under
// virtual time.
//
// Substitution note for the §6 testbed: the paper's experimental phenomena —
// bottleneck formation at a CPU threshold, checkpoint CPU cost delaying
// tuple processing, provisioning delays, recovery replay time — are all
// functions of rates, costs and delays. The simulator models exactly
// those quantities, so experiment *shapes* are preserved while absolute
// throughput numbers reflect simulated (not EC2) hardware.
package sim

import (
	"container/heap"
	"math/rand"
)

// Millis is virtual time in milliseconds since simulation start.
type Millis = int64

// event is a scheduled callback.
type event struct {
	at  Millis
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is the discrete-event simulation kernel. It is single-threaded:
// all entity code runs inside event callbacks, so entities need no
// internal locking. Determinism: with a fixed seed and identical
// schedules, runs are bit-for-bit reproducible.
type Sim struct {
	now    Millis
	seq    uint64
	events eventHeap
	rng    *rand.Rand
	halted bool
}

// New returns a simulator seeded for deterministic pseudo-randomness.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Millis { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn at absolute virtual time t. Scheduling in the past
// executes at the current time (events cannot rewind the clock).
func (s *Sim) At(t Millis, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d milliseconds from now.
func (s *Sim) After(d Millis, fn func()) { s.At(s.now+d, fn) }

// Every schedules fn every period milliseconds, starting one period from
// now, until the simulation halts or fn returns false.
func (s *Sim) Every(period Millis, fn func() bool) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	var tick func()
	tick = func() {
		if !fn() {
			return
		}
		s.After(period, tick)
	}
	s.After(period, tick)
}

// Step executes the next event, advancing the clock. It reports whether
// an event was executed.
func (s *Sim) Step() bool {
	if s.halted || len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	e.fn()
	return true
}

// RunUntil executes events until the clock would pass t or no events
// remain. The clock is left at min(t, last event time ≥ current).
func (s *Sim) RunUntil(t Millis) {
	for !s.halted && len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Run executes all remaining events.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// Halt stops the simulation: no further events execute.
func (s *Sim) Halt() { s.halted = true }

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.events) }
