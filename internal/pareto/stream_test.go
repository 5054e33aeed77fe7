package pareto

import (
	"math"
	"math/rand/v2"
	"testing"
)

// chainRef is the derivation chain for (seed, job, task, index) written out
// key by key, independently of DeriveSeed's loop.
func chainRef(seed, job, task, index uint64) uint64 {
	s := splitmix64(seed)
	s = splitmix64(s ^ splitmix64(job))
	s = splitmix64(s ^ splitmix64(task))
	return splitmix64(s ^ splitmix64(index))
}

// TestExtendStreamMatchesMakeStream checks the simulator's per-task stream
// prefix: continuing DeriveSeed(seed, job, task) with an attempt index gives
// the draws of MakeStream(seed, job, task, index), which are those of the
// chain in that key order — and no other order gives them.
func TestExtendStreamMatchesMakeStream(t *testing.T) {
	edges := []uint64{0, 1, math.MaxUint64}
	rng := rand.New(rand.NewPCG(17, 29))
	var cases [][4]uint64
	for _, a := range edges {
		for _, b := range edges {
			cases = append(cases, [4]uint64{a, b, a, b}, [4]uint64{b, a, a, b})
		}
	}
	for i := 0; i < 200; i++ {
		c := [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		c[i%4] = edges[i%len(edges)]
		if i%5 == 0 {
			c[1], c[2], c[3] = rng.Uint64N(1000), rng.Uint64N(4000), rng.Uint64N(8) // simulator-sized keys
		}
		cases = append(cases, c)
	}

	const draws = 8
	first := func(s Stream) (out [draws]float64) {
		for i := range out {
			out[i] = s.Float64()
		}
		return out
	}
	for _, c := range cases {
		seed, job, task, index := c[0], c[1], c[2], c[3]
		ref := chainRef(seed, job, task, index)
		var st Stream
		st.pcg.Seed(ref, splitmix64(ref))
		want := first(st)

		if got := first(ExtendStream(DeriveSeed(seed, job, task), index)); got != want {
			t.Fatalf("ExtendStream(DeriveSeed(%d, %d, %d), %d) draws %v, chain %v", seed, job, task, index, got, want)
		}
		if got := first(MakeStream(seed, job, task, index)); got != want {
			t.Fatalf("MakeStream(%d, %d, %d, %d) draws %v, chain %v", seed, job, task, index, got, want)
		}
		// The comparison sees the key order: swapping two keys of the
		// chain moves the draws.
		if job != task {
			if got := first(ExtendStream(DeriveSeed(seed, task, job), index)); got == want {
				t.Fatalf("job %d and task %d swapped in the prefix give the same draws", job, task)
			}
		}
		if task != index {
			if got := first(ExtendStream(DeriveSeed(seed, job, index), task)); got == want {
				t.Fatalf("task %d and index %d swapped across the prefix give the same draws", task, index)
			}
		}
	}
}
