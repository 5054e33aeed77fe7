package pareto

import "math/rand/v2"

// Stream derivation: experiments must be reproducible and, more importantly,
// strategies must be compared on common random numbers — the same
// (job, task, attempt) triple must see the same Pareto draw regardless of
// which strategy is being simulated. We derive independent PCG streams from a
// root seed and a list of integer keys using a SplitMix64 mixing chain.

// splitmix64 advances a SplitMix64 state and returns the next output.
func splitmix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed folds keys into seed, producing a well-mixed 64-bit value that
// is stable across runs and platforms.
func DeriveSeed(seed uint64, keys ...uint64) uint64 {
	return fold(splitmix64(seed), keys)
}

// fold continues a derivation chain at s with keys, in order.
func fold(s uint64, keys []uint64) uint64 {
	for _, k := range keys {
		s = splitmix64(s ^ splitmix64(k))
	}
	return s
}

// NewStream returns a deterministic PCG-backed *rand.Rand derived from seed
// and keys via DeriveSeed.
func NewStream(seed uint64, keys ...uint64) *rand.Rand {
	s := MakeStream(seed, keys...)
	return rand.New(&s.pcg)
}

// Stream is the stream NewStream returns, as a value: the same PCG seeded
// the same way, so it yields the same draws, but it can live on the caller's
// stack. The simulator samples every attempt from one, which NewStream's two
// heap objects per stream made the most allocated thing in a replay.
type Stream struct {
	pcg rand.PCG
}

// MakeStream returns the Stream for seed and keys.
func MakeStream(seed uint64, keys ...uint64) Stream {
	return ExtendStream(DeriveSeed(seed), keys...)
}

// ExtendStream continues the chain a DeriveSeed call returned with more keys
// and returns the Stream at its end: ExtendStream(DeriveSeed(seed, a, b), c)
// is MakeStream(seed, a, b, c). A caller that draws many streams under one
// key prefix derives the prefix once and pays only for the keys after it.
func ExtendStream(prefix uint64, keys ...uint64) Stream {
	s := fold(prefix, keys)
	var st Stream
	st.pcg.Seed(s, splitmix64(s))
	return st
}

// Float64 returns the next draw in [0, 1), computed as (*rand.Rand).Float64
// computes it.
func (s *Stream) Float64() float64 {
	return float64(s.pcg.Uint64()<<11>>11) / (1 << 53)
}
