package operator

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/wirecodec"
)

// roundTrip snapshots src's managed state and restores it into dst,
// reporting success — the get/set-processing-state cycle every recovery
// rests on.
func roundTrip(src, dst Managed) bool {
	kv, err := src.State().TakeCheckpoint()
	if err != nil {
		return false
	}
	return dst.State().Restore(kv) == nil
}

// TestWordCounterSnapshotRoundTripQuick: for any random word multiset,
// snapshot → restore reproduces exactly the same counts — the property
// checkpoint/restore correctness rests on.
func TestWordCounterSnapshotRoundTripQuick(t *testing.T) {
	f := func(wordIdx []uint8) bool {
		w := NewWordCounter(0)
		want := make(map[string]int64)
		for _, i := range wordIdx {
			word := fmt.Sprintf("w%d", i%32)
			want[word]++
			w.OnTuple(Context{}, stream.Tuple{Key: stream.KeyOfString(word), Payload: word}, func(stream.Key, any) {})
		}
		restored := NewWordCounter(0)
		if !roundTrip(w, restored) {
			return false
		}
		for word, n := range want {
			if restored.Count(word) != n {
				return false
			}
		}
		return restored.Distinct() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTopKReducerSnapshotRoundTripQuick: rankings survive restore.
func TestTopKReducerSnapshotRoundTripQuick(t *testing.T) {
	f := func(itemIdx []uint8) bool {
		r := NewTopKReducer(5, 1000)
		for _, i := range itemIdx {
			item := fmt.Sprintf("lang%d", i%16)
			r.OnTuple(Context{}, stream.Tuple{Key: stream.KeyOfString(item), Payload: item}, func(stream.Key, any) {})
		}
		restored := NewTopKReducer(5, 1000)
		if !roundTrip(r, restored) {
			return false
		}
		a, b := r.TopK(), restored.TopK()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// mapPayload exercises the map-order hazard directly: a payload type
// whose codec must impose its own ordering, because map iteration is
// randomized. Registered once here with a sorted-key codec.
type mapPayload map[string]int64

func init() {
	if _, err := wirecodec.RegisterCodec(mapPayload{},
		func(e *stream.Encoder, v any) error {
			m := v.(mapPayload)
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			e.Uvarint(uint64(len(keys)))
			for _, k := range keys {
				e.StringV(k)
				e.Varint(m[k])
			}
			return nil
		},
		func(d *stream.Decoder) (any, error) {
			n := int(d.Uvarint())
			if err := d.Err(); err != nil {
				return nil, err
			}
			m := make(mapPayload, n)
			for i := 0; i < n; i++ {
				m[d.StringV()] = d.Varint()
			}
			return m, d.Err()
		}); err != nil {
		panic(err)
	}
}

// TestBinaryCodecDeterministicEncoding: under the binary wire codec,
// re-encoding the same payload value is byte-identical for EVERY
// registered payload type — the property gob does not provide for maps
// (topk.go works around gob's randomized map walk) and the reason the
// binary framing can be compared, cached and diffed byte-wise.
func TestBinaryCodecDeterministicEncoding(t *testing.T) {
	payloads := map[string]any{
		"WordCount":  WordCount{Word: "determinism", Count: 42},
		"RankEntry":  RankEntry{Item: "go", Count: 7},
		"Ranking":    Ranking{{Item: "go", Count: 7}, {Item: "java", Count: 3}},
		"JoinedPair": JoinedPair{Left: WordCount{Word: "l", Count: 1}, Right: RankEntry{Item: "r", Count: 2}},
		"mapPayload": mapPayload{"zeta": 26, "alpha": 1, "mu": 13, "kappa": 11, "omega": 24},
		"string":     "plain string payload",
		"int64":      int64(-99),
	}
	fallback := state.GobPayloadCodec{}
	for name, p := range payloads {
		var first []byte
		for i := 0; i < 50; i++ {
			e := stream.NewEncoder(128)
			if err := wirecodec.EncodePayload(e, p, fallback); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			if first == nil {
				first = append([]byte(nil), e.Bytes()...)
				continue
			}
			if !bytes.Equal(first, e.Bytes()) {
				t.Fatalf("%s: encode %d differs from first encode — codec leaks map iteration order", name, i)
			}
		}
		// And the deterministic bytes still round-trip.
		got, err := wirecodec.DecodePayload(stream.NewDecoder(first), fallback)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		switch want := p.(type) {
		case mapPayload:
			gm, ok := got.(mapPayload)
			if !ok || len(gm) != len(want) {
				t.Fatalf("%s: roundtrip got %#v", name, got)
			}
			for k, v := range want {
				if gm[k] != v {
					t.Fatalf("%s: roundtrip [%s]=%d want %d", name, k, gm[k], v)
				}
			}
		case Ranking:
			gr, ok := got.(Ranking)
			if !ok || len(gr) != len(want) {
				t.Fatalf("%s: roundtrip got %#v", name, got)
			}
			for i := range want {
				if gr[i] != want[i] {
					t.Fatalf("%s: roundtrip [%d]=%v want %v", name, i, gr[i], want[i])
				}
			}
		default:
			if got != p {
				t.Fatalf("%s: roundtrip got %#v want %#v", name, got, p)
			}
		}
	}
}

// TestKeyedSumSnapshotRoundTripQuick: sums survive restore bit-exactly.
func TestKeyedSumSnapshotRoundTripQuick(t *testing.T) {
	extract := func(p any) (float64, bool) {
		v, ok := p.(float64)
		return v, ok
	}
	f := func(keys []uint8, vals []float64) bool {
		s := NewKeyedSum(0, extract)
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			s.OnTuple(Context{}, stream.Tuple{Key: stream.Key(keys[i]), Payload: vals[i]}, func(stream.Key, any) {})
		}
		restored := NewKeyedSum(0, extract)
		if !roundTrip(s, restored) {
			return false
		}
		for k := 0; k < 256; k++ {
			if s.Sum(stream.Key(k)) != restored.Sum(stream.Key(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
