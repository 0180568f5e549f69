package state

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.hex from the current encoders")

// goldenStore is one fixed store plus the churn applied between its full
// checkpoint and its delta.
type goldenStore struct {
	name  string
	build func(t *testing.T) (s *Store, churn func())
}

var goldenStores = []goldenStore{
	{"int64", func(t *testing.T) (*Store, func()) {
		s := NewStore()
		v := NewValue[int64](s, "n", Int64Codec{})
		for i := 0; i < 64; i++ {
			v.Set(stream.Key(stream.Mix64(uint64(i))), int64(3*i-5))
		}
		return s, func() {
			for i := 0; i < 64; i += 7 {
				v.Update(stream.Key(stream.Mix64(uint64(i))), func(x int64) int64 { return x + 1000 })
			}
			v.Delete(stream.Key(stream.Mix64(11)))
			v.Set(stream.Key(stream.Mix64(500)), -1)
		}
	}},
	{"value_map", func(t *testing.T) (*Store, func()) {
		// Keys 1..9 only in v, 10..20 in both cells, 21..30 only in m.
		s := NewStore()
		v := NewValue[float64](s, "v", Float64Codec{})
		m := NewMap[int64](s, "m", Int64Codec{})
		for k := stream.Key(1); k <= 20; k++ {
			v.Set(k, float64(k)/4)
		}
		for k := stream.Key(10); k <= 30; k++ {
			for f := 0; f < int(k%3)+1; f++ {
				m.Put(k, fmt.Sprintf("f%d", 2-f), int64(k)*10+int64(f))
			}
		}
		return s, func() {
			v.Delete(15) // still held by m
			m.Delete(25) // held by no cell afterwards
			m.Put(3, "new", 33)
			v.Set(stream.MaxKey, 0.5)
			v.Set(0, -0.5)
		}
	}},
	{"spilled", func(t *testing.T) (*Store, func()) {
		s := NewStore()
		v := NewValue[string](s, "s", StringCodec{})
		if err := s.EnableSpill(t.TempDir(), 64<<10); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.CloseSpill() })
		for i := 0; i < 3000; i++ {
			v.Set(stream.Key(stream.Mix64(uint64(i))), strings.Repeat("x", i%17)+fmt.Sprint(i))
		}
		if s.SpillStats().SpilledKeys == 0 {
			t.Fatal("golden store never spilled")
		}
		for i := 0; i < 3000; i += 5 { // deletions hit spilled and resident keys alike
			v.Delete(stream.Key(stream.Mix64(uint64(i))))
		}
		return s, func() {
			for i := 1; i < 3000; i += 250 {
				v.Set(stream.Key(stream.Mix64(uint64(i))), "churned")
			}
			v.Delete(stream.Key(stream.Mix64(2)))
		}
	}},
}

// TestGoldenCheckpointBytes pins the wire layout: the full checkpoints
// of three fixed stores must equal, byte for byte, the hex files
// generated when the layout last changed (v3, whose processing section
// names its cells once) — so DurableStore files, journals and deploy
// blobs written by older binaries of this layout still load — and so
// must the checkpoint each store's delta travels as.
func TestGoldenCheckpointBytes(t *testing.T) {
	inst := plan.InstanceID{Op: "cnt", Part: 2}
	up := plan.InstanceID{Op: "map", Part: 1}
	down := plan.InstanceID{Op: "sink", Part: 1}
	for _, g := range goldenStores {
		t.Run(g.name, func(t *testing.T) {
			s, churn := g.build(t)
			buf := NewBuffer()
			for i := int64(1); i <= 5; i++ {
				buf.Append(down, stream.Tuple{TS: 100 + i, Key: stream.Key(i * 7), Born: 1000 + i, Payload: i})
			}
			buf.Append(down, stream.Tuple{TS: 110, Key: 9, Born: 1010, Payload: "tail"})

			kv, err := s.TakeCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			proc := NewProcessing(1)
			proc.KV = kv
			proc.TS[0] = 17
			cp := &Checkpoint{Instance: inst, Seq: 3, Processing: proc, Buffer: buf, OutClock: 110,
				Acks: map[plan.InstanceID]int64{up: 17}}
			full, err := MarshalCheckpoint(cp, GobPayloadCodec{})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.name+"_full", full)

			churn()
			d, err := s.TakeDelta(stream.TSVector{21}, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			dc := &DeltaCheckpoint{Instance: inst, Delta: d, Buffer: buf, OutClock: 111,
				Acks: map[plan.InstanceID]int64{up: 21}}
			delta, err := MarshalCheckpoint(dc.Checkpoint(), GobPayloadCodec{})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.name+"_delta", delta)
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if *updateGolden {
		path := filepath.Join("testdata", "golden_"+name+".hex")
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := readGolden(t, name); string(got) != string(want) {
		t.Errorf("%s: %d bytes differ from the golden %d bytes", name, len(got), len(want))
	}
}

// readGolden returns the bytes pinned in testdata/golden_<name>.hex.
func readGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	return readHex(tb, "golden_"+name+".hex")
}

// readHex returns the bytes hex-encoded in testdata/<file>.
func readHex(tb testing.TB, file string) []byte {
	tb.Helper()
	path := filepath.Join("testdata", file)
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return b
}
