package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKeyOfStringMatchesKeyOf(t *testing.T) {
	inputs := []string{"", "a", "first", "second set", "日本語", "the quick brown fox"}
	for _, s := range inputs {
		if got, want := KeyOfString(s), KeyOf([]byte(s)); got != want {
			t.Errorf("KeyOfString(%q) = %d, KeyOf = %d", s, got, want)
		}
	}
}

func TestKeyOfStringMatchesKeyOfQuick(t *testing.T) {
	f := func(s string) bool { return KeyOfString(s) == KeyOf([]byte(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	prev := c.Last()
	if prev != 0 {
		t.Fatalf("zero clock Last() = %d, want 0", prev)
	}
	for i := 0; i < 1000; i++ {
		ts := c.Next()
		if ts <= prev {
			t.Fatalf("clock went backwards: %d after %d", ts, prev)
		}
		prev = ts
	}
	if c.Last() != prev {
		t.Errorf("Last() = %d, want %d", c.Last(), prev)
	}
}

func TestClockReset(t *testing.T) {
	var c Clock
	for i := 0; i < 10; i++ {
		c.Next()
	}
	c.Reset(3)
	if got := c.Next(); got != 4 {
		t.Errorf("after Reset(3), Next() = %d, want 4", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(math.MaxUint64)
	e.Int64(-42)
	e.Uint32(7)
	e.Int32(-7)
	e.Uint8(255)
	e.Bool(true)
	e.Bool(false)
	e.Float64(3.14159)
	e.Bytes32([]byte{1, 2, 3})
	e.String32("hello")
	e.Key(Key(12345))

	d := NewDecoder(e.Bytes())
	if got := d.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Uint32(); got != 7 {
		t.Errorf("Uint32 = %d", got)
	}
	if got := d.Int32(); got != -7 {
		t.Errorf("Int32 = %d", got)
	}
	if got := d.Uint8(); got != 255 {
		t.Errorf("Uint8 = %d", got)
	}
	if got := d.Bool(); got != true {
		t.Errorf("Bool = %v", got)
	}
	if got := d.Bool(); got != false {
		t.Errorf("Bool = %v", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.Bytes32(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := d.String32(); got != "hello" {
		t.Errorf("String32 = %q", got)
	}
	if got := d.Key(); got != Key(12345) {
		t.Errorf("Key = %d", got)
	}
	if err := d.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, b []byte, fl float64, ok bool) bool {
		e := NewEncoder(0)
		e.Uint64(u)
		e.Int64(i)
		e.String32(s)
		e.Bytes32(b)
		e.Float64(fl)
		e.Bool(ok)
		d := NewDecoder(e.Bytes())
		gotU := d.Uint64()
		gotI := d.Int64()
		gotS := d.String32()
		gotB := d.Bytes32()
		gotF := d.Float64()
		gotOK := d.Bool()
		if d.Err() != nil || d.Remaining() != 0 {
			return false
		}
		if gotU != u || gotI != i || gotS != s || gotOK != ok {
			return false
		}
		if len(gotB) != len(b) {
			return false
		}
		for j := range b {
			if gotB[j] != b[j] {
				return false
			}
		}
		// NaN != NaN; compare bit patterns.
		return math.Float64bits(gotF) == math.Float64bits(fl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.Uint64()
	if d.Err() == nil {
		t.Fatal("expected error reading past end")
	}
	// After an error, further reads are no-ops returning zeros.
	if got := d.Uint32(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.Uint64(1)
	e.Reset()
	if e.Len() != 0 {
		t.Errorf("Len after Reset = %d", e.Len())
	}
	e.Uint32(5)
	if e.Len() != 4 {
		t.Errorf("Len = %d, want 4", e.Len())
	}
}

func TestTupleString(t *testing.T) {
	tu := Tuple{TS: 3, Key: 7, Payload: "x"}
	if got := tu.String(); got != "{τ=3 k=7 p=x}" {
		t.Errorf("String() = %q", got)
	}
}
