package state

import (
	"fmt"
	"sort"
	"strings"

	"seep/internal/plan"
	"seep/internal/stream"
)

// KeyRange is a closed interval [Lo, Hi] over the tuple key space. Closed
// intervals (rather than half-open) let a set of ranges cover the entire
// uint64 space exactly, including stream.MaxKey.
type KeyRange struct {
	Lo, Hi stream.Key
}

// FullRange covers the whole key space.
var FullRange = KeyRange{Lo: 0, Hi: stream.MaxKey}

// Contains reports whether k falls inside the interval.
func (r KeyRange) Contains(k stream.Key) bool { return k >= r.Lo && k <= r.Hi }

// Width returns the number of keys in the range minus one (the full range
// would overflow uint64). Used only for proportional splitting.
func (r KeyRange) Width() uint64 { return uint64(r.Hi - r.Lo) }

// String renders the range as [lo,hi].
func (r KeyRange) String() string { return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi) }

// SplitEven divides the range into π contiguous sub-ranges of (nearly)
// equal width — the hash-partitioning key split of Algorithm 2 lines 1-2.
// It panics if π < 1; callers validate π at the policy layer.
func (r KeyRange) SplitEven(pi int) []KeyRange {
	if pi < 1 {
		panic("state: split with pi < 1")
	}
	if pi == 1 {
		return []KeyRange{r}
	}
	out := make([]KeyRange, 0, pi)
	width := r.Width()
	step := width / uint64(pi)
	lo := r.Lo
	for i := 0; i < pi; i++ {
		hi := r.Hi
		if i < pi-1 {
			hi = lo + stream.Key(step)
		}
		out = append(out, KeyRange{Lo: lo, Hi: hi})
		lo = hi + 1
	}
	return out
}

// SplitByWeight divides the range into π sub-ranges guided by the observed
// key distribution: keys is a sorted sample of hot keys with weights, and
// boundaries are chosen so each sub-range receives roughly equal total
// weight. Falls back to SplitEven when the sample is too small. This is
// the "key distribution can be used to guide the split" option of §3.2.
func (r KeyRange) SplitByWeight(pi int, keys []stream.Key, weights []float64) []KeyRange {
	if pi < 1 {
		panic("state: split with pi < 1")
	}
	if pi == 1 {
		return []KeyRange{r}
	}
	if len(keys) != len(weights) || len(keys) < pi {
		return r.SplitEven(pi)
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.SplitEven(pi)
	}
	out := make([]KeyRange, 0, pi)
	lo := r.Lo
	acc := 0.0
	target := total / float64(pi)
	part := 0
	for _, i := range idx {
		if part == pi-1 {
			break
		}
		acc += weights[i]
		if acc >= target*float64(part+1) {
			hi := keys[i]
			if hi >= r.Hi || hi < lo {
				continue
			}
			out = append(out, KeyRange{Lo: lo, Hi: hi})
			lo = hi + 1
			part++
		}
	}
	out = append(out, KeyRange{Lo: lo, Hi: r.Hi})
	if len(out) != pi {
		return r.SplitEven(pi)
	}
	return out
}

// RouteEntry maps a key range to one partitioned downstream instance.
type RouteEntry struct {
	Target plan.InstanceID
	Range  KeyRange
}

// Routing is the routing state ρu of an operator u for ONE logical
// downstream operator: a set of key ranges, one per live partition of
// that downstream (§3.1). Entries are kept sorted by Range.Lo and must
// tile the full key space.
type Routing struct {
	entries []RouteEntry
}

// NewRouting creates routing state sending the full key space to a single
// downstream instance — the state of a freshly deployed, unpartitioned
// stream.
func NewRouting(target plan.InstanceID) *Routing {
	return &Routing{entries: []RouteEntry{{Target: target, Range: FullRange}}}
}

// NewRoutingFromEntries builds routing state from explicit entries,
// validating that they tile the key space.
func NewRoutingFromEntries(entries []RouteEntry) (*Routing, error) {
	r := &Routing{entries: append([]RouteEntry(nil), entries...)}
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].Range.Lo < r.entries[j].Range.Lo })
	if err := r.validate(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Routing) validate() error {
	if len(r.entries) == 0 {
		return fmt.Errorf("state: empty routing")
	}
	if r.entries[0].Range.Lo != 0 {
		return fmt.Errorf("state: routing does not start at key 0: %v", r.entries[0].Range)
	}
	for i := 1; i < len(r.entries); i++ {
		prev, cur := r.entries[i-1].Range, r.entries[i].Range
		if cur.Lo != prev.Hi+1 {
			return fmt.Errorf("state: routing gap/overlap between %v and %v", prev, cur)
		}
	}
	if last := r.entries[len(r.entries)-1].Range; last.Hi != stream.MaxKey {
		return fmt.Errorf("state: routing does not end at MaxKey: %v", last)
	}
	return nil
}

// Clone returns an independent copy.
func (r *Routing) Clone() *Routing {
	return &Routing{entries: append([]RouteEntry(nil), r.entries...)}
}

// Entries returns a copy of the route entries sorted by range.
func (r *Routing) Entries() []RouteEntry {
	return append([]RouteEntry(nil), r.entries...)
}

// Targets returns the distinct downstream instances in range order.
func (r *Routing) Targets() []plan.InstanceID {
	seen := make(map[plan.InstanceID]bool, len(r.entries))
	var out []plan.InstanceID
	for _, e := range r.entries {
		if !seen[e.Target] {
			seen[e.Target] = true
			out = append(out, e.Target)
		}
	}
	return out
}

// Lookup returns the downstream instance responsible for key k. The
// entries always tile the key space, so lookup cannot miss.
func (r *Routing) Lookup(k stream.Key) plan.InstanceID {
	return r.entries[r.LookupIndex(k)].Target
}

// LookupIndex returns the index (in Entries order) of the route entry
// responsible for key k. Hot paths that pre-resolve per-entry data —
// target node pointers, buffer handles — index their caches with it
// instead of re-resolving the InstanceID per tuple.
func (r *Routing) LookupIndex(k stream.Key) int {
	// Binary search over sorted, tiling ranges.
	lo, hi := 0, len(r.entries)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if r.entries[mid].Range.Hi < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RangeOf returns the key interval currently routed to instance id and
// whether the instance appears in the routing state. When an instance
// owns several entries (possible after merges), the union is returned if
// contiguous.
func (r *Routing) RangeOf(id plan.InstanceID) (KeyRange, bool) {
	var out KeyRange
	found := false
	for _, e := range r.entries {
		if e.Target != id {
			continue
		}
		if !found {
			out = e.Range
			found = true
			continue
		}
		if e.Range.Lo == out.Hi+1 {
			out.Hi = e.Range.Hi
		}
	}
	return out, found
}

// Repartition implements partition-routing-state (Algorithm 2 lines 9-12):
// the entries for old instances of logical operator op are removed, their
// combined interval is split across the new instances, and the updated
// routing state is returned as a new value. ranges[i] is assigned to
// newInstances[i]; the caller obtains ranges via SplitEven/SplitByWeight
// over the old interval so the tiling invariant is preserved.
func (r *Routing) Repartition(op plan.OpID, newInstances []plan.InstanceID, ranges []KeyRange) (*Routing, error) {
	if len(newInstances) != len(ranges) {
		return nil, fmt.Errorf("state: %d instances for %d ranges", len(newInstances), len(ranges))
	}
	kept := make([]RouteEntry, 0, len(r.entries)+len(ranges))
	for _, e := range r.entries {
		if e.Target.Op != op {
			kept = append(kept, e)
		}
	}
	for i, id := range newInstances {
		if id.Op != op {
			return nil, fmt.Errorf("state: instance %s does not belong to %q", id, op)
		}
		kept = append(kept, RouteEntry{Target: id, Range: ranges[i]})
	}
	return NewRoutingFromEntries(kept)
}

// String renders the routing table.
func (r *Routing) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, e := range r.entries {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s→%s", e.Range, e.Target)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Encode serialises the routing state.
func (r *Routing) Encode(e *stream.Encoder) {
	e.Uint32(uint32(len(r.entries)))
	for _, en := range r.entries {
		e.String32(string(en.Target.Op))
		e.Uint32(uint32(en.Target.Part))
		e.Key(en.Range.Lo)
		e.Key(en.Range.Hi)
	}
}

// MarshalRouting encodes r into an exactly sized buffer of its own.
func MarshalRouting(r *Routing) []byte {
	n := 4
	for _, en := range r.entries {
		n += 24 + len(en.Target.Op)
	}
	e := stream.NewEncoder(n)
	r.Encode(e)
	return e.Bytes()
}

// routeEntryMinBytes is the smallest entry Encode writes: an empty
// operator name behind its length, the part and the two range keys.
const routeEntryMinBytes = 4 + 4 + 8 + 8

// DecodeRouting reads routing state written by Encode. The entry count
// is checked against the bytes left before anything is allocated.
func DecodeRouting(d *stream.Decoder) (*Routing, error) {
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/routeEntryMinBytes {
		return nil, fmt.Errorf("state: routing of %d entries exceeds the %d bytes left", n, d.Remaining())
	}
	entries := make([]RouteEntry, 0, n)
	for i := 0; i < n; i++ {
		op := d.String32()
		part := int(d.Uint32())
		lo := d.Key()
		hi := d.Key()
		if err := d.Err(); err != nil {
			return nil, err
		}
		entries = append(entries, RouteEntry{
			Target: plan.InstanceID{Op: plan.OpID(op), Part: part},
			Range:  KeyRange{Lo: lo, Hi: hi},
		})
	}
	return NewRoutingFromEntries(entries)
}
