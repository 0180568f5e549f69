package core

import (
	"cmp"
	"errors"
	"fmt"

	"seep/internal/plan"
)

// Kind is the shape of a transition.
type Kind int

const (
	// Recovery replaces a failed victim from its last stored checkpoint.
	Recovery Kind = iota
	// ScaleOut splits one live victim into π partitions (Algorithm 3).
	ScaleOut
	// ScaleIn merges live sibling partitions into one (§3.3).
	ScaleIn
	// Fallback recovers an instance another transition stranded (a
	// Recover action), always at π = 1: its replacement inherits the
	// stranded identity (Inherit), and an operator a scale out left at
	// its max parallelism is recovered, not refused. It reports its own
	// strands in its Done and never recovers them again.
	Fallback
)

// String is the shape's name in the control-plane journal.
func (k Kind) String() string { return [...]string{"recover", "scale-out", "scale-in", "recover"}[k] }

func (k Kind) failure() bool { return k == Recovery || k == Fallback }

// ActionKind names what an Action asks a substrate to do.
type ActionKind int

const (
	// Retire stops each live victim of Insts, captures its final
	// checkpoint and stores it.
	Retire ActionKind = iota
	// Place gives each of Plan's replacements a host (a node, a worker, a
	// VM) and restores its checkpoint; none receives traffic yet.
	Place
	// Reroute installs Plan.Routing at every upstream instance, applies
	// Plan.Inherit and Plan.Trims, and repartitions the upstream buffers
	// toward the replacements.
	Reroute
	// Adopt replays the retained output of each of Insts downstream, then
	// starts it.
	Adopt
	// Checkpoint takes a fresh checkpoint of merge product Insts[0]; a
	// miss is covered by the periodic checkpoint.
	Checkpoint
	// Recover recovers each of Insts, which the transition stranded, by a
	// Fallback sequence.
	Recover
	// Done ends the transition with Err. It is the last action.
	Done
)

// String names the action in traces and errors.
func (k ActionKind) String() string {
	return [...]string{"retire", "place", "reroute", "adopt", "checkpoint", "recover", "done"}[k]
}

// Action is one step a substrate executes for a Sequencer. Retire,
// Place, Reroute and Adopt are each answered by one Event of the same
// rank; the others are not answered.
type Action struct {
	Kind ActionKind
	// Insts are the victims a Retire stops, the replacements an Adopt
	// starts, the product a Checkpoint captures and the instances a
	// Recover recovers.
	Insts []plan.InstanceID
	// Plan is the transition a Place, Reroute or Adopt executes.
	Plan *Transition
	// Err is a Done's outcome.
	Err error
}

// EventKind names what an Event reports.
type EventKind int

const (
	// Retired, Placed, Rerouted and Adopted answer the action of the same
	// rank.
	Retired EventKind = iota
	Placed
	Rerouted
	Adopted
	// Failed aborts the transition with Err, whatever it awaits.
	Failed
	// Timeout aborts the transition because a step took too long.
	Timeout
)

// Event is a substrate's report back to its Sequencer.
type Event struct {
	Kind EventKind
	// Insts are the replacements a Placed or Adopted step succeeded for.
	Insts []plan.InstanceID
	// Err is the step's first failure, or a Failed's reason.
	Err error
	// Replayed counts the tuples a Rerouted or Adopted step replayed.
	Replayed int
	// At is the job-clock time of an Adopted: the record completes then.
	At int64
}

// Policy is the scaling policy's memory of a transition's victims
// (control.Scaler, whose methods take a nil receiver).
type Policy interface {
	// Forget drops what the policy knows of superseded instances.
	Forget(victims []plan.InstanceID)
	// Unmute lets the policy pick a victim again after its scale out
	// failed.
	Unmute(victim plan.InstanceID)
}

// Sequencer orders one transition. Failure recovery, scale out and scale
// in are one staged switch-over from N victims to M replacements (§4.2:
// "operator recovery becomes a special case of scale out"; the §3.3
// merge is the N→1 shape):
//
//	retire each live victim → plan → place → reroute → adopt → record
//
// A Sequencer has no goroutine, no clock and no I/O. Start and Step
// return the actions a substrate executes — the live engine inline, the
// coordinator as control messages, the simulator in virtual time — and
// the substrate feeds each action's report back through Step. The
// sequencer keeps the manager's books itself: ValidateMerge before a
// merge retires anything, Plan once every retire has been stored, and
// Complete when every replacement has been adopted. Three rules keep
// every shape exactly-once:
//
//  1. A live victim stops BEFORE its final checkpoint is captured, so
//     the capture reflects everything it ever processed and emitted.
//     There is no post-checkpoint window to reconstruct: tuples in
//     flight to a stopped victim are dropped unprocessed and stay
//     retained upstream for replay. (A failed victim is planned from its
//     last stored checkpoint instead; upstream retains everything past
//     it.)
//  2. A victim's retained output replays downstream under the identity
//     that stamped it, against the per-sender duplicate-detection
//     watermarks downstream already holds: a lone replacement of a lone
//     victim inherits its watermark (Inherit); otherwise the victims'
//     buffers survive as legacy buffers (state.Checkpoint.Legacy) under
//     the victims' own names until downstream checkpoints acknowledge
//     them.
//  3. Upstream buffers are trimmed to each victim's own final watermark
//     (Trim) before they are repartitioned under the new routing, and the
//     new route tables are installed atomically with that
//     repartitioning: every emitted tuple is either already retained when
//     its buffer is repartitioned (and replayed under the new routing,
//     ahead of anything fresh) or routed with the new table. A merge
//     product's watermark per upstream is the victims' MINIMUM
//     (state.MergeCheckpoints), so the replay set is exactly the union of
//     tuples no victim had processed.
//
// Reroute carries the Inherit renames, so it completes on every host
// before any replacement is adopted and starts re-emitting.
//
// A transition that fails must not leave a key range unserved, so it
// ends in abort-to-recovery: Recover(stranded), then Done(err). Before
// Plan, the stranded set is the victims whose retire was issued: they
// are stopped but still own their ranges. After Plan, it is the
// replacements not confirmed adopted: they own ranges and have stored
// checkpoints, but nothing serves them. Either kind recovers from its
// stored checkpoint exactly as after a crash. A Fallback reports its own
// strands and never recovers them again. The policy forgets the victims
// once the record is kept; a failed scale out unmutes its victim.
type Sequencer struct {
	m         *Manager
	policy    Policy
	kind      Kind
	victims   []plan.InstanceID
	pi        int
	startedAt int64

	// stage is the action whose report the sequence awaits; tp is the
	// plan.
	stage ActionKind
	tp    *Transition
	// placed and adopted are the replacements those steps succeeded for.
	placed, adopted []plan.InstanceID
	err             error
	replayed        int
	completedAt     int64
}

// NewSequencer prepares the transition of victims to pi replacements;
// startedAt is the job-clock time its record starts from. A Fallback
// runs at π = 1 whatever pi is. A live victim set is validated here
// (ValidateMerge for a merge), so a bad one is refused before anything
// retires; a refused scale out unmutes its victim.
func NewSequencer(m *Manager, policy Policy, kind Kind, victims []plan.InstanceID, pi int, startedAt int64) (*Sequencer, error) {
	var err error
	switch kind {
	case Fallback:
		pi = 1
	case ScaleOut:
		if err = m.validate(victims); err != nil {
			policy.Unmute(victims[0])
		}
	case ScaleIn:
		err = m.ValidateMerge(victims)
	}
	return &Sequencer{m: m, policy: policy, kind: kind, victims: victims, pi: pi, startedAt: startedAt}, err
}

// Kind returns the transition's shape.
func (s *Sequencer) Kind() Kind { return s.kind }

// Victims returns the instances the transition supersedes.
func (s *Sequencer) Victims() []plan.InstanceID { return s.victims }

// Start returns the first action: the live victims' Retire, or for a
// recovery the plan's Place.
func (s *Sequencer) Start() []Action {
	if s.kind.failure() {
		return s.plan()
	}
	return []Action{{Kind: Retire, Insts: s.victims}}
}

// Step takes one report and returns the actions it releases. A report
// the current stage does not await, and any after Done, is ignored.
func (s *Sequencer) Step(ev Event) []Action {
	switch {
	case s.stage == Done:
		return nil
	case ev.Kind == Failed:
		return s.abort(cmp.Or(ev.Err, fmt.Errorf("core: %s of %v failed", s.kind, s.victims)))
	case ev.Kind == Timeout:
		return s.abort(fmt.Errorf("core: %s of %v timed out awaiting %s", s.kind, s.victims, s.stage))
	case ev.Kind != EventKind(s.stage):
		return nil
	}
	s.err, s.replayed, s.completedAt = cmp.Or(s.err, ev.Err), s.replayed+ev.Replayed, ev.At
	switch s.stage {
	case Retire:
		if ev.Err != nil {
			return s.abort(ev.Err)
		}
		return s.plan()
	case Place:
		s.placed, s.stage = ev.Insts, Reroute
		return []Action{{Kind: Reroute, Plan: s.tp}}
	case Reroute:
		if ev.Err != nil {
			return s.abort(ev.Err)
		}
		if len(s.placed) > 0 {
			s.stage = Adopt
			return []Action{{Kind: Adopt, Plan: s.tp, Insts: s.placed}}
		}
	case Adopt:
		s.adopted = ev.Insts
	}
	return s.finish()
}

// plan plans the transition once every retire has been stored.
func (s *Sequencer) plan() []Action {
	tp, err := s.m.Plan(s.victims, s.pi, s.kind.failure())
	if err != nil {
		return s.abort(err)
	}
	s.tp, s.stage = tp, Place
	return []Action{{Kind: Place, Plan: tp}}
}

// finish keeps the record when every replacement was adopted, and
// otherwise aborts.
func (s *Sequencer) finish() []Action {
	if len(s.adopted) < len(s.tp.NewInstances) {
		return s.abort(s.err)
	}
	s.stage = Done
	s.m.Complete(s.tp, s.kind.failure(), s.startedAt, s.completedAt, s.replayed)
	s.policy.Forget(s.victims)
	if s.kind != ScaleIn {
		return []Action{{Kind: Done}}
	}
	// The product's stored checkpoint is the plan-time merge of the
	// victims' captures; a fresh capture supersedes it, so a failure right
	// after the merge recovers from a self-consistent state.
	return []Action{{Kind: Checkpoint, Insts: s.tp.NewInstances}, {Kind: Done}}
}

// abort ends the transition with err: abort-to-recovery.
func (s *Sequencer) abort(err error) []Action {
	var stranded []plan.InstanceID
	if s.tp != nil {
		for _, ni := range s.tp.NewInstances {
			if !containsInstance(s.adopted, ni) {
				stranded = append(stranded, ni)
			}
		}
	} else if !s.kind.failure() {
		stranded = s.victims // their retire went out with Start
	}
	s.stage = Done
	if s.kind == ScaleOut {
		s.policy.Unmute(s.victims[0])
	}
	err = cmp.Or(err, errors.New("core: replacement not adopted"))
	switch {
	case len(stranded) == 0:
	case s.kind == Fallback:
		err = fmt.Errorf("core: recovery of %v stranded %v: %w", s.victims, stranded, err)
	default:
		err = fmt.Errorf("core: %s of %v aborted, recovering %v: %w", s.kind, s.victims, stranded, err)
		return []Action{{Kind: Recover, Insts: stranded}, {Kind: Done, Err: err}}
	}
	return []Action{{Kind: Done, Err: err}}
}
