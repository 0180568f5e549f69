package main

import (
	"seep"
	"seep/internal/stream"
)

// keygen yields a workload's key sequence. Tuple i carries the key
// Mix64(salt + pos), where pos walks [0, k) in a seed-chosen stride
// coprime with k: every window of k tuples touches each key once, in an
// order and at key values that depend only on the seed.
type keygen struct {
	salt, k, stride, pos uint64
}

func newKeygen(seed int64, k int) *keygen {
	mixed := stream.Mix64(uint64(seed)*0x9e3779b97f4a7c15 + 1)
	stride := mixed%uint64(k) | 1
	for gcd(stride, uint64(k)) != 1 {
		stride += 2
	}
	// The salt depends on the seed alone, so a smaller key set under the
	// same seed is a subset of a larger one (the hot set of bigstate-dist).
	return &keygen{salt: stream.Mix64(mixed), k: uint64(k), stride: stride % uint64(k)}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *keygen) next() seep.Key {
	key := seep.Key(stream.Mix64(g.salt + g.pos))
	g.pos += g.stride
	if g.pos >= g.k {
		g.pos -= g.k
	}
	return key
}

// segment is the next n tuples of the run's stream-th key sequence
// (0 = set-up, 1 = the timed phases), which draws from k keys.
type segment struct {
	stream, k int
	n         int64
}

// oracle is the reference computation: one goroutine and one Go map
// count, per key, the tuples of the given segments, generated again
// from the seed exactly as the run generated them.
func oracle(seed int64, segs []segment) map[seep.Key]int64 {
	gens := map[int]*keygen{}
	want := map[seep.Key]int64{}
	for _, s := range segs {
		g := gens[s.stream]
		if g == nil {
			g = newKeygen(seed, s.k)
			gens[s.stream] = g
		}
		for i := int64(0); i < s.n; i++ {
			want[g.next()]++
		}
	}
	return want
}

// stateDiff sums |got − want| over the union of keys: 0 means the
// operator's managed state equals the reference exactly.
func stateDiff(got, want map[seep.Key]int64) int64 {
	var d int64
	for k, w := range want {
		d += abs64(got[k] - w)
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			d += abs64(g)
		}
	}
	return d
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
