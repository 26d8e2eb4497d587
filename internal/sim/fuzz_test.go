package sim

import (
	"math"
	"testing"
)

// FuzzZipfNext drives the inverse-CDF Zipf sampler with arbitrary (seed, n,
// theta) and checks its only output contract: every draw lies in [0, n) and
// the sampler never panics or produces NaN-poisoned indices for any valid
// parameterization. It also pins NewZipfSum's contract: a sampler built
// from a precomputed Zeta sum draws NewZipf's stream exactly.
func FuzzZipfNext(f *testing.F) {
	f.Add(uint64(1), int64(100), 0.93)
	f.Add(uint64(42), int64(1), 0.65)
	f.Add(uint64(0), int64(2), 0.99)
	f.Add(uint64(0xdeadbeef), int64(1<<20), 0.5)
	f.Add(uint64(7), int64(3), 0.0001)
	f.Fuzz(func(t *testing.T, seed uint64, n int64, theta float64) {
		// Constructor preconditions (documented panics) and cases where the
		// distribution is undefined; also bound n so one input can't eat the
		// fuzz budget on the O(n) harmonic sum.
		if n <= 0 || n > 1<<22 {
			t.Skip()
		}
		if math.IsNaN(theta) || theta <= 0 || theta >= 1 {
			t.Skip()
		}

		z := NewZipf(int(n), theta)
		pre := NewZipfSum(int(n), theta, Zeta(int(n), theta))
		r1, r2 := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 64; i++ {
			v := z.Next(r1)
			if v < 0 || v >= int(n) {
				t.Fatalf("Zipf(%d, %v).Next() = %d, outside [0, %d)", n, theta, v, n)
			}
			if w := pre.Next(r2); w != v {
				t.Fatalf("Zipf from a precomputed sum diverged from NewZipf: %d != %d (draw %d)", w, v, i)
			}
		}
	})
}

// FuzzRNGBounded exercises the bounded generators with arbitrary seeds and
// bounds: results must respect the bound for any n, with no panic on any
// positive bound and no value escaping [0, n). Determinism is checked by
// replaying the same seed.
func FuzzRNGBounded(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0xfeedface), uint64(1<<63))
	f.Add(uint64(99), uint64(3))
	f.Add(uint64(12345), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed, n uint64) {
		if n == 0 {
			t.Skip() // Uint64n(0) would divide by zero; callers guarantee n > 0
		}
		r := NewRNG(seed)
		for i := 0; i < 64; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
		if in := int(n); in > 0 { // n may overflow int; Intn documents a panic for those
			if v := NewRNG(seed).Intn(in); v < 0 || v >= in {
				t.Fatalf("Intn(%d) = %d", in, v)
			}
		}
		if i64 := int64(n); i64 > 0 {
			if v := NewRNG(seed).Int63n(i64); v < 0 || v >= i64 {
				t.Fatalf("Int63n(%d) = %d", i64, v)
			}
		}

		// Same seed, same stream.
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 8; i++ {
			if x, y := a.Uint64n(n), b.Uint64n(n); x != y {
				t.Fatalf("seed %d not reproducible: %d != %d", seed, x, y)
			}
		}
	})
}
