package state

import (
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
)

func mkCheckpoint(keys int, seed int64) *Checkpoint {
	c := &Checkpoint{
		Instance:   inst("count", 1),
		Seq:        7,
		Processing: mkProcessing(keys, seed),
		Buffer:     NewBuffer(),
		OutClock:   42,
	}
	c.Buffer.Append(inst("sink", 1), tuple(1, 5))
	c.Buffer.Append(inst("sink", 1), tuple(2, 6))
	return c
}

func TestCheckpointValidate(t *testing.T) {
	var nilC *Checkpoint
	if nilC.Validate() == nil {
		t.Error("nil checkpoint should not validate")
	}
	c := &Checkpoint{}
	if c.Validate() == nil {
		t.Error("empty checkpoint should not validate")
	}
	if err := mkCheckpoint(3, 1).Validate(); err != nil {
		t.Errorf("valid checkpoint rejected: %v", err)
	}
}

// TestCheckpointSize: a checkpoint's size is its processing section's
// encoded length plus 16 bytes per buffered tuple.
func TestCheckpointSize(t *testing.T) {
	c := mkCheckpoint(5, 2)
	if got, want := c.Size(), c.Processing.KV.Size()+16*2; got != want {
		t.Errorf("Size() = %d, want %d", got, want)
	}
	var nilC *Checkpoint
	if nilC.Size() != 0 {
		t.Error("nil checkpoint should have zero size")
	}
}

func TestPartitionCheckpoint(t *testing.T) {
	c := mkCheckpoint(100, 3)
	newInstances := []plan.InstanceID{inst("count", 2), inst("count", 3), inst("count", 4)}
	ranges := FullRange.SplitEven(3)
	parts, err := PartitionCheckpoint(c, newInstances, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	totalKeys := 0
	for i, p := range parts {
		if p.Instance != newInstances[i] {
			t.Errorf("part %d assigned to %v", i, p.Instance)
		}
		if p.OutClock != c.OutClock {
			t.Errorf("part %d OutClock = %d, want %d", i, p.OutClock, c.OutClock)
		}
		for k := range p.Processing.KV.All() {
			if !ranges[i].Contains(k) {
				t.Errorf("part %d holds key %d outside %v", i, k, ranges[i])
			}
		}
		totalKeys += p.Processing.KV.Len()
	}
	if totalKeys != c.Processing.KV.Len() {
		t.Errorf("parts hold %d keys, original %d", totalKeys, c.Processing.KV.Len())
	}
	// Algorithm 2 line 7: buffer state goes to the first partition only,
	// as a legacy buffer under the victim's identity — the parts are
	// fresh identities downstream holds no watermark for.
	if lb := parts[0].Legacy[c.Instance]; lb == nil || lb.Len() != 2 || len(parts[0].Legacy) != 1 {
		t.Errorf("first partition legacy = %v, want the victim's 2 tuples under %v", parts[0].Legacy, c.Instance)
	}
	for i, p := range parts {
		if p.Buffer.Len() != 0 {
			t.Errorf("partition %d own buffer = %d tuples, want 0", i, p.Buffer.Len())
		}
		if i > 0 && len(p.Legacy) != 0 {
			t.Errorf("partition %d legacy = %v, want none", i, p.Legacy)
		}
	}
	// A lone part inherits the victim's identity (core.Inherit) and keeps
	// the buffer as its own.
	lone, err := PartitionCheckpoint(c, newInstances[:1], FullRange.SplitEven(1))
	if err != nil {
		t.Fatal(err)
	}
	if lone[0].Buffer.Len() != 2 || len(lone[0].Legacy) != 0 {
		t.Errorf("lone part buffer = %d tuples, legacy %v; want 2 and none", lone[0].Buffer.Len(), lone[0].Legacy)
	}
}

func TestPartitionCheckpointErrors(t *testing.T) {
	c := mkCheckpoint(10, 4)
	if _, err := PartitionCheckpoint(c, []plan.InstanceID{inst("count", 2)}, FullRange.SplitEven(2)); err == nil {
		t.Error("mismatched instances/ranges should fail")
	}
	var nilC *Checkpoint
	if _, err := PartitionCheckpoint(nilC, nil, nil); err == nil {
		t.Error("nil checkpoint should fail")
	}
}

func TestMergeCheckpoints(t *testing.T) {
	c := mkCheckpoint(80, 5)
	newInstances := []plan.InstanceID{inst("count", 2), inst("count", 3)}
	parts, err := PartitionCheckpoint(c, newInstances, FullRange.SplitEven(2))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeCheckpoints(inst("count", 9), parts[0], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if merged.Instance != inst("count", 9) {
		t.Errorf("merged instance = %v", merged.Instance)
	}
	if !merged.Processing.KV.Equal(c.Processing.KV) {
		t.Error("merge(partition(c)) processing state differs from original")
	}
	// The retained output keeps its original sender identity: the split
	// left it as the first partition's legacy buffer under c's instance,
	// and the merge passes it through, never concatenated into the merged
	// node's own buffer.
	if merged.Buffer.Len() != 0 {
		t.Errorf("merged buffer = %d tuples, want 0 (victim output is legacy)", merged.Buffer.Len())
	}
	legacyTotal := 0
	for _, b := range merged.Legacy {
		legacyTotal += b.Len()
	}
	if legacyTotal != c.Buffer.Len() {
		t.Errorf("legacy buffers hold %d tuples, want %d", legacyTotal, c.Buffer.Len())
	}
	if _, ok := merged.Legacy[c.Instance]; !ok {
		t.Errorf("legacy buffers = %v, want an entry for %v", merged.Legacy, c.Instance)
	}
	if merged.OutClock != c.OutClock {
		t.Errorf("merged OutClock = %d, want %d", merged.OutClock, c.OutClock)
	}
}

// TestMergeCheckpointsAcksTakeMinimum: the merged duplicate-detection
// watermark must sit at or below every victim's position — a maximum
// would discard replayed tuples bound for the lower-watermark victim —
// and upstreams missing from any victim's map are omitted entirely.
func TestMergeCheckpointsAcksTakeMinimum(t *testing.T) {
	up := inst("src", 1)
	only := inst("src", 2)
	a := mkCheckpoint(5, 6)
	a.Instance = inst("count", 1)
	a.Acks = map[plan.InstanceID]int64{up: 10, only: 3}
	b := mkCheckpoint(5, 7)
	b.Instance = inst("count", 2)
	b.Acks = map[plan.InstanceID]int64{up: 25}
	merged, err := MergeCheckpoints(inst("count", 9), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Acks[up]; got != 10 {
		t.Errorf("merged ack for %v = %d, want the minimum 10", up, got)
	}
	if _, ok := merged.Acks[only]; ok {
		t.Errorf("merged acks retain %v, which one victim never saw", only)
	}
}

// TestMergeCheckpointsFoldsNestedLegacy: a victim that itself carries
// legacy buffers (an earlier merge not yet acknowledged) passes them
// through under the original owners.
func TestMergeCheckpointsFoldsNestedLegacy(t *testing.T) {
	old := inst("count", 0)
	a := mkCheckpoint(5, 6)
	a.Instance = inst("count", 1)
	lb := NewBuffer()
	lb.Append(inst("sink", 1), tuple(7, 1))
	a.Legacy = map[plan.InstanceID]*Buffer{old: lb}
	b := mkCheckpoint(5, 7)
	b.Instance = inst("count", 2)
	merged, err := MergeCheckpoints(inst("count", 9), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Legacy[old]; got == nil || got.Len() != 1 {
		t.Errorf("nested legacy for %v not carried through: %v", old, merged.Legacy)
	}
}

// TestCheckpointCodecRoundTripsLegacy: legacy buffers survive the wire
// and disk codec with owner identity, order and tuple contents intact.
func TestCheckpointCodecRoundTripsLegacy(t *testing.T) {
	cp := mkCheckpoint(4, 11)
	cp.Buffer = NewBuffer() // mkCheckpoint's tuples carry non-string payloads
	cp.Acks = map[plan.InstanceID]int64{inst("src", 1): 9}
	lb := NewBuffer()
	lb.Append(inst("sink", 1), stream.Tuple{TS: 3, Key: 1, Born: 2, Payload: "a"})
	lb.Append(inst("sink", 1), stream.Tuple{TS: 5, Key: 2, Born: 2, Payload: "b"})
	cp.Legacy = map[plan.InstanceID]*Buffer{
		inst("count", 7): lb,
		inst("count", 8): NewBuffer(), // empty owners are elided
	}
	e := stream.NewEncoder(256)
	if err := EncodeCheckpoint(e, cp, StringPayloadCodec{}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(stream.NewDecoder(e.Bytes()), StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Legacy) != 1 {
		t.Fatalf("decoded legacy owners = %d, want 1 (empty elided): %v", len(got.Legacy), got.Legacy)
	}
	gb := got.Legacy[inst("count", 7)]
	if gb == nil {
		t.Fatalf("legacy owner lost in codec: %v", got.Legacy)
	}
	tuples := gb.Tuples(inst("sink", 1))
	if len(tuples) != 2 || tuples[0].TS != 3 || tuples[1].Payload != "b" {
		t.Errorf("legacy tuples corrupted: %v", tuples)
	}
}

func TestMergeCheckpointsErrors(t *testing.T) {
	if _, err := MergeCheckpoints(inst("x", 1)); err == nil {
		t.Error("merging zero checkpoints should fail")
	}
	a := mkCheckpoint(5, 6)
	b := mkCheckpoint(5, 7)
	b.Instance = inst("other", 1)
	if _, err := MergeCheckpoints(inst("count", 2), a, b); err == nil {
		t.Error("merging across logical operators should fail")
	}
}
