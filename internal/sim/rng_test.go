package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Fork()
	c2 := parent.Fork()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked children produced identical first values")
	}
}

func TestRNGForkDeterministic(t *testing.T) {
	mk := func() uint64 {
		p := NewRNG(99)
		return p.Fork().Uint64()
	}
	if mk() != mk() {
		t.Fatal("fork is not deterministic")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10_000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

// TestIntnUnbiased checks the Lemire bounded-rejection draw for uniformity:
// Intn(3) over splitmix64 output must land each bucket within tolerance of
// n/3. (The old `Uint64() % n` path was biased toward small values for n not
// a power of two; for small n the bias is tiny, so this is a distribution
// sanity check plus a guard against gross regressions such as an off-by-one
// in the rejection threshold.)
func TestIntnUnbiased(t *testing.T) {
	const n = 300_000
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		r := NewRNG(seed)
		var counts [3]int
		for i := 0; i < n; i++ {
			counts[r.Intn(3)]++
		}
		for b, c := range counts {
			frac := float64(c) / n
			if frac < 0.323 || frac > 0.343 { // 1/3 +- ~3 sigma
				t.Fatalf("seed %d: Intn(3) bucket %d frac %.4f, want ~0.3333", seed, b, frac)
			}
		}
	}
}

// TestUint64nCoversRange checks the rejection path with an n just above a
// power of two (worst case for the biased fringe) and verifies bounds and
// that both endpoints are reachable.
func TestUint64nCoversRange(t *testing.T) {
	r := NewRNG(9)
	const n = 1<<16 + 1
	seenLow, seenHigh := false, false
	for i := 0; i < 2_000_000; i++ {
		v := r.Uint64n(n)
		if v >= n {
			t.Fatalf("Uint64n(%d) = %d out of range", n, v)
		}
		if v == 0 {
			seenLow = true
		}
		if v == n-1 {
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Fatalf("endpoints not reached: low=%v high=%v", seenLow, seenHigh)
	}
}

func TestInt63nBounds(t *testing.T) {
	r := NewRNG(31)
	for i := 0; i < 10_000; i++ {
		v := r.Int63n(999_983) // prime: exercises the non-power-of-two path
		if v < 0 || v >= 999_983 {
			t.Fatalf("Int63n = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100_000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(1000, 0.9)
	r := NewRNG(17)
	for i := 0; i < 50_000; i++ {
		v := z.Next(r)
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of bounds: %d", v)
		}
	}
}

// TestZipfTailClamp hammers nextFrom with u values within a few ulps of 1 —
// the region where `int(float64(n) * powF(...))` can round up to exactly n —
// across a grid of sizes and skews, and checks the rank never leaves [0, n).
func TestZipfTailClamp(t *testing.T) {
	// Walk down from the largest float64 below 1 one ulp at a time, plus a
	// few coarser tail offsets.
	var us []float64
	u := math.Nextafter(1, 0)
	for i := 0; i < 64; i++ {
		us = append(us, u)
		u = math.Nextafter(u, 0)
	}
	us = append(us, 1-1e-15, 1-1e-12, 1-1e-9, 1-1e-6, 0.999999, 0)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for _, theta := range []float64{0.01, 0.5, 0.93, 0.99} {
			z := NewZipf(n, theta)
			for _, u := range us {
				if v := z.nextFrom(u); v < 0 || v >= n {
					t.Fatalf("Zipf(n=%d, theta=%g).nextFrom(%v) = %d out of [0, %d)", n, theta, u, v, n)
				}
			}
		}
	}
}

// TestZipfNextMatchesNextFrom pins Next to the nextFrom(Float64()) path so
// the clamp covers the public API.
func TestZipfNextMatchesNextFrom(t *testing.T) {
	z := NewZipf(1000, 0.9)
	a, b := NewRNG(29), NewRNG(29)
	for i := 0; i < 10_000; i++ {
		if got, want := z.Next(a), z.nextFrom(b.Float64()); got != want {
			t.Fatalf("draw %d: Next = %d, nextFrom(Float64()) = %d", i, got, want)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(10_000, 0.9)
	r := NewRNG(19)
	counts := make([]int, 10_000)
	const n = 200_000
	for i := 0; i < n; i++ {
		counts[z.Next(r)]++
	}
	// Rank 0 must be by far the most popular, and the top 1% of ranks must
	// carry a large share of the mass for theta = 0.9.
	top1pct := 0
	for i := 0; i < 100; i++ {
		top1pct += counts[i]
	}
	if counts[0] < counts[500] {
		t.Fatalf("rank 0 (%d) not hotter than rank 500 (%d)", counts[0], counts[500])
	}
	if frac := float64(top1pct) / n; frac < 0.30 {
		t.Fatalf("top 1%% of ranks carries only %.2f of mass; want heavy skew", frac)
	}
}

func TestZipfLowThetaIsFlatter(t *testing.T) {
	flat := NewZipf(1000, 0.1)
	skewed := NewZipf(1000, 0.95)
	rf, rs := NewRNG(23), NewRNG(23)
	var flatTop, skewTop int
	const n = 100_000
	for i := 0; i < n; i++ {
		if flat.Next(rf) < 10 {
			flatTop++
		}
		if skewed.Next(rs) < 10 {
			skewTop++
		}
	}
	if flatTop >= skewTop {
		t.Fatalf("theta=0.1 top-10 mass %d >= theta=0.95 mass %d", flatTop, skewTop)
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(0, 0.5)
}

// TestUint64Distribution checks a basic uniformity property with
// testing/quick: for arbitrary seeds, high and low halves of outputs are not
// constant.
func TestUint64Distribution(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		var orAll, andAll uint64 = 0, ^uint64(0)
		for i := 0; i < 64; i++ {
			v := r.Uint64()
			orAll |= v
			andAll &= v
		}
		// After 64 draws essentially every bit should have been 0 at least
		// once and 1 at least once.
		return orAll == ^uint64(0) && andAll == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
