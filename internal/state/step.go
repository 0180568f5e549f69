package state

import (
	"iter"

	"seep/internal/plan"
	"seep/internal/stream"
)

// The node step: the per-tuple rules exactly-once rests on (§3.1,
// Algorithm 3), written once for every substrate that embeds an
// Instance. On receive, Admit drops what the sender's acknowledged
// timestamp already covers and advances that ack and the input's TS. On
// emit, Emit stamps from the output clock, retains in buffer state and
// routes by key range. On a transition, Inherit renames a victim's ack
// for its replacement, and Reroute repartitions retained output and
// enumerates its replay. Like every Instance method they do no locking:
// the live engine calls them under its node lock, the simulator inside
// one event.

// Staged is one operator emission awaiting its timestamp and route.
type Staged struct {
	Key     stream.Key
	Payload any
	// Born is the lineage birth time the emitted tuple carries.
	Born int64
}

// Hop is one downstream logical operator of an emitting instance,
// resolved for Emit: the input index at the receiver, the routing state
// and, aligned with the routing entries, the target instances and the
// buffer handles that retain output toward them. Hops are immutable once
// built; rebuild them with Instance.Hops whenever a routing changes or
// the Buffer is replaced (Restore).
type Hop struct {
	Input   int
	Routing *Routing
	// Targets[i] is the instance of routing entry i.
	Targets []plan.InstanceID
	// handles[i] retains output toward Targets[i]; nil on a hop that
	// retains nothing.
	handles []BufHandle
}

// Hops resolves the downstream fan-out of an instance of op in q under
// the routing lookup (an operator it returns nil for is skipped). retain
// says whether the instance keeps its output in buffer state for replay;
// output toward a sink is never retained, sinks being reliable (§2.2).
func (in *Instance) Hops(q *plan.Query, op plan.OpID, retain bool, routing func(plan.OpID) *Routing) []Hop {
	var hops []Hop
	for _, down := range q.Downstream(op) {
		r := routing(down)
		if r == nil {
			continue
		}
		h := Hop{Input: q.InputIndex(op, down), Routing: r}
		for _, e := range r.entries {
			h.Targets = append(h.Targets, e.Target)
			if retain && q.Op(down).Role != plan.RoleSink {
				h.handles = append(h.handles, in.Buffer.Handle(e.Target))
			}
		}
		hops = append(hops, h)
	}
	return hops
}

// Out is one batch built by Emit, with the index of its hop in the hops
// Emit was given and of the routing entry its target was found under, so
// a caller can index its own per-target data without a second lookup.
type Out struct {
	Batch
	Hop, Entry int
}

// Emit stamps items with consecutive timestamps from the output clock,
// retains each tuple where its hop retains, and appends to dst one batch
// per (hop, target) — in hop order, within a hop in the order targets
// first occur — holding that target's tuples in emission order. Tuple
// slices come from BatchTuples; each batch is the caller's to hand on or
// Recycle.
func (in *Instance) Emit(dst []Out, from plan.InstanceID, items []Staged, hops []Hop) []Out {
	if len(items) == 0 {
		return dst
	}
	base := in.OutClock.NextN(len(items))
	tuple := func(i int) stream.Tuple {
		s := &items[i]
		return stream.Tuple{TS: base + int64(i), Key: s.Key, Born: s.Born, Payload: s.Payload}
	}
	for hi := range hops {
		h := &hops[hi]
		if len(h.Targets) == 1 {
			// Unpartitioned downstream — the common case: no routing
			// lookup, no per-tuple grouping.
			ts := BatchTuples(len(items))
			for i := range items {
				t := tuple(i)
				if h.handles != nil {
					h.handles[0].Append(t)
				}
				ts = append(ts, t)
			}
			dst = append(dst, Out{Batch: Batch{From: from, To: h.Targets[0], Input: h.Input, Tuples: ts}, Hop: hi})
			continue
		}
		// Partitioned downstream: group by target. Runs are short, so a
		// linear scan over this hop's open batches beats a map.
		open := len(dst)
		for i := range items {
			idx := h.Routing.LookupIndex(items[i].Key)
			t := tuple(i)
			if h.handles != nil {
				h.handles[idx].Append(t)
			}
			to := h.Targets[idx]
			j := open
			for j < len(dst) && dst[j].To != to {
				j++
			}
			if j == len(dst) {
				// Capacity for the whole run up front: one slice per target
				// instead of log(len) growth reallocations.
				dst = append(dst, Out{Batch: Batch{From: from, To: to, Input: h.Input, Tuples: BatchTuples(len(items))}, Hop: hi, Entry: idx})
			}
			dst[j].Tuples = append(dst[j].Tuples, t)
		}
	}
	return dst
}

// Admit is the receive rule: it drops every tuple of b the sender's
// acknowledged timestamp already covers — a replay already reflected in
// the state — or that is not newer than the tuple kept before it, then
// advances the sender's ack to the newest kept tuple.
// It returns the kept tuples, filtered in place over b.Tuples; when none
// is kept nothing changes.
func (in *Instance) Admit(b Batch) []stream.Tuple {
	wm := in.Acks[b.From]
	last := wm
	kept := b.Tuples[:0]
	for _, t := range b.Tuples {
		if t.TS > last {
			last = t.TS
			kept = append(kept, t)
		}
	}
	if last > wm {
		in.Acks[b.From] = last
	}
	return kept
}

// Inherit moves the ack held for a transition's lone victim old to its
// lone replacement repl, which resumes the victim's output clock: what
// repl re-emits is then deduplicated against what old already delivered.
func (in *Instance) Inherit(old, repl plan.InstanceID) {
	if ts, ok := in.Acks[old]; ok {
		in.Acks[repl] = ts
		delete(in.Acks, old)
	}
}

// Reroute is an upstream instance's share of a transition of op
// (Algorithm 3 lines 9-14): its own buffer and every legacy buffer it
// hosts are repartitioned under the new routing (Algorithm 2 lines
// 13-17), and the returned sequence enumerates what now replays to
// newInsts — the instance's own retained tuples under its identity self,
// then those of the retired siblings whose legacy buffers it hosts under
// theirs.
func (in *Instance) Reroute(self plan.InstanceID, op plan.OpID, routing *Routing, newInsts []plan.InstanceID) iter.Seq[Replay] {
	in.Buffer.Repartition(op, routing)
	for _, lb := range in.Legacy {
		lb.Repartition(op, routing)
	}
	return func(yield func(Replay) bool) {
		eachSender(self, in.Buffer, in.Legacy, func(from plan.InstanceID, b *Buffer) bool {
			for _, to := range newInsts {
				tb := b.perTarget[to]
				if tb == nil {
					continue
				}
				for seg := range tb.segments() {
					for _, t := range seg {
						if !yield(Replay{From: from, To: to, T: t}) {
							return false
						}
					}
				}
			}
			return true
		})
	}
}
