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
	"sync"
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
	return NewZipfCached(n, theta, nil)
}

// NewZipfCached is NewZipf with the O(n) harmonic-sum constant served from
// cache when the cache already holds it. A nil cache always computes. The
// constants are a pure function of (n, theta), so a cached Zipf draws a
// bit-identical stream to an uncached one — the cache changes construction
// cost only, never simulation output.
func NewZipfCached(n int, theta float64, cache *ZetaCache) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	z := &Zipf{n: n}
	z.zetan = cache.zetan(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - powF(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.halfPN = 1 + powF(0.5, theta)
	return z
}

// ZetaCache memoizes the O(n) generalized harmonic sum zeta(n, theta) that
// dominates Zipf construction. n is the shared-pool line count: 524,288
// math.Pow terms per engine on the quick database and 1,572,864 on the
// paper's. Every engine built from the same sizing parameters needs the
// same sums, so one cache per owner removes all but the first computation.
// The owners are a sweep's experiments.Options (DefaultOptions and
// QuickOptions each create one) and the job server, which keeps one for
// its whole life and hands it to every job.
//
// The cache is deliberately NOT package-level state: it is created by its
// owner and threaded through the configuration, so independent runs stay
// pure functions of (config, seed) — the determinism contract oltpvet
// enforces. Its keys are the engine's own (n, theta) pairs, never client
// input, so a long-lived cache holds at most two entries per database
// scale. The mutex makes it safe to share across workers; since the cached
// value is bit-identical to the recomputed one, hit/miss interleaving
// cannot affect results.
type ZetaCache struct {
	mu sync.Mutex
	m  map[zetaKey]float64
}

type zetaKey struct {
	n     int
	theta float64
}

// NewZetaCache returns an empty cache ready for concurrent use.
func NewZetaCache() *ZetaCache { return &ZetaCache{m: make(map[zetaKey]float64)} }

// Len returns the number of memoized (n, theta) entries.
func (c *ZetaCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// zetan returns zeta(n, theta), memoized. A nil receiver computes directly.
func (c *ZetaCache) zetan(n int, theta float64) float64 {
	if c == nil {
		return zeta(n, theta)
	}
	k := zetaKey{n: n, theta: theta}
	c.mu.Lock()
	v, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return v
	}
	// Compute outside the lock: a concurrent first miss does duplicate work
	// but both goroutines store the identical value.
	v = zeta(n, theta)
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
	return v
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

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / powF(float64(i), theta)
	}
	return sum
}

func powF(x, y float64) float64 { return math.Pow(x, y) }
