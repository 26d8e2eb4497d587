// Package sim provides the deterministic simulation substrate shared by all
// other packages: seeded random-number streams, simulated clocks, and the
// run controller that interleaves per-CPU activity in global time order.
//
// Nothing in this package (or anywhere else in the simulator) reads the wall
// clock or a global random source; every run is a pure function of its
// configuration and seed, so every figure in the paper regenerates
// bit-identically.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a splitmix64 pseudo-random generator. It is tiny, fast, and easy to
// fork into independent streams, which we use to give every simulated process
// and daemon its own deterministic randomness.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent stream from this one. The parent advances by
// one step, so successive Fork calls yield distinct children.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next value truncated to 32 bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// bounded-rejection method (Lemire, "Fast Random Integer Generation in an
// Interval", 2019). Unlike `Uint64() % n`, which over-weights small residues
// whenever n does not divide 2^64, the rejection step makes every value in
// [0, n) exactly equally likely. The fast path is a single 128-bit multiply;
// rejection fires with probability < n/2^64.
func (r *RNG) Uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // (2^64 - n) mod n, the biased low fringe
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform value in [0, n) as int64. It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Zipf draws from a bounded Zipf-like distribution over [0, n) with skew
// parameter theta in (0, 1). theta near 1 is heavily skewed; theta near 0 is
// close to uniform. It uses the standard inverse-CDF approximation employed by
// the TPC and YCSB workload generators, which is accurate enough for workload
// synthesis and allocation-free.
type Zipf struct {
	n      int
	alpha  float64
	zetan  float64
	eta    float64
	zeta2  float64
	halfPN float64
}

// NewZipf precomputes the constants for a Zipf(n, theta) distribution.
func NewZipf(n int, theta float64) *Zipf {
	return NewZipfSum(n, theta, Zeta(n, theta))
}

// NewZipfSum is NewZipf with the O(n) generalized harmonic sum zeta(n,
// theta) supplied by the caller, who holds it precomputed. Given
// Zeta(n, theta) bit for bit, it draws NewZipf's stream exactly.
func NewZipfSum(n int, theta, zetan float64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	z := &Zipf{n: n, zetan: zetan}
	z.zeta2 = Zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - powF(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.halfPN = 1 + powF(0.5, theta)
	return z
}

// Next draws the next rank in [0, n); rank 0 is the hottest item.
func (z *Zipf) Next(r *RNG) int { return z.nextFrom(r.Float64()) }

// nextFrom maps a uniform u in [0, 1) to a rank, clamping the result to
// [0, n): at the extreme tail (u within a few ulps of 1) the inverse-CDF
// approximation `int(float64(n) * pow(...))` can round up to exactly n,
// which would address a nonexistent item.
func (z *Zipf) nextFrom(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPN {
		return 1
	}
	k := int(float64(z.n) * powF(z.eta*u-z.eta+1, z.alpha))
	if k < 0 {
		return 0
	}
	if k >= z.n {
		return z.n - 1
	}
	return k
}

// Zeta returns the generalized harmonic sum of 1/i^theta over i in [1, n],
// the constant that sizes a Zipf(n, theta) sampler. It costs one math.Pow
// per term.
func Zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / powF(float64(i), theta)
	}
	return sum
}

func powF(x, y float64) float64 { return math.Pow(x, y) }
