package state

import (
	"iter"

	"seep/internal/plan"
	"seep/internal/stream"
)

// Replay is one element of a transition's replay set: tuple T bound for
// To, attributed to its ORIGINAL emitter From — duplicate detection is
// per sender, so only the identity that stamped T matches the receiver's
// watermarks.
type Replay struct {
	From, To plan.InstanceID
	T        stream.Tuple
}

// eachSender visits a node's buffers with the identity each replays
// under — its own as self, then legacy buffers under their retired
// owners', in (Op, Part) order — until fn reports false.
func eachSender(self plan.InstanceID, buf *Buffer, legacy map[plan.InstanceID]*Buffer, fn func(from plan.InstanceID, b *Buffer) bool) {
	if buf != nil && !fn(self, buf) {
		return
	}
	for _, owner := range LegacyOwners(legacy) {
		if b := legacy[owner]; b != nil && !fn(owner, b) {
			return
		}
	}
}

// DownstreamReplay enumerates what a restored checkpoint replays to its
// downstream operators (Algorithm 3 line 7): its own buffered output
// under its own identity, then every legacy buffer it carries under the
// retired owner's. Each tuple is re-looked-up under the CURRENT routing
// of its target's operator — the downstream set may itself have been
// repartitioned since the checkpoint — and keeps its recorded target
// when routing knows nothing about that operator (nil).
func DownstreamReplay(cp *Checkpoint, routing func(plan.OpID) *Routing) iter.Seq[Replay] {
	return func(yield func(Replay) bool) {
		eachSender(cp.Instance, cp.Buffer, cp.Legacy, func(from plan.InstanceID, b *Buffer) bool {
			for _, target := range b.Targets() {
				r := routing(target.Op)
				for seg := range b.perTarget[target].segments() {
					for _, t := range seg {
						to := target
						if r != nil {
							to = r.Lookup(t.Key)
						}
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
