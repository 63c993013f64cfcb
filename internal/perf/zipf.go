package perf

import (
	"math"
	"math/rand"
	"sync"
)

// zipfGen draws item ranks from the Zipfian distribution of YCSB /
// Gray et al. ("Quickly generating billion-record synthetic databases"),
// which — unlike math/rand.Zipf — supports the skew range θ < 1 the
// hot-set literature uses (YCSB's default is θ = 0.99). Rank 0 is the
// hottest item; ranks are mapped through a bijective Feistel permutation
// before use so the hot set spreads across the address space instead of
// clustering at offset zero. Draws are allocation-free.
type zipfGen struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 0.5^theta, the rank-1 threshold
	// Feistel geometry for the rank→item permutation: the smallest
	// even-bit power-of-two domain covering n, split into two halves.
	halfBits uint
	halfMask uint64
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// zetaMemo caches zeta by (n, theta). The sum is O(n), and every Zipf
// stream over the same span and skew needs the same value. Engines run
// concurrently in tests, hence the mutex.
var zetaMemo struct {
	sync.Mutex
	m map[zetaKey]float64
}

type zetaKey struct {
	n     int64
	theta float64
}

// memoZeta is zeta, computed once per (n, theta).
func memoZeta(n int64, theta float64) float64 {
	k := zetaKey{n, theta}
	zetaMemo.Lock()
	z, ok := zetaMemo.m[k]
	zetaMemo.Unlock()
	if ok {
		return z
	}
	z = zeta(n, theta)
	zetaMemo.Lock()
	if zetaMemo.m == nil {
		zetaMemo.m = make(map[zetaKey]float64)
	}
	zetaMemo.m[k] = z
	zetaMemo.Unlock()
	return z
}

// newZipf prepares a generator over n items with skew theta in (0, 1).
func newZipf(n int64, theta float64) *zipfGen {
	if n < 1 {
		n = 1
	}
	if theta >= 1 {
		theta = 0.999 // the Gray transform needs theta < 1
	}
	zetan := memoZeta(n, theta)
	bits := uint(2)
	for int64(1)<<bits < n {
		bits += 2
	}
	return &zipfGen{
		n:        n,
		theta:    theta,
		alpha:    1 / (1 - theta),
		zetan:    zetan,
		eta:      (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan),
		half:     math.Pow(0.5, theta),
		halfBits: bits / 2,
		halfMask: 1<<(bits/2) - 1,
	}
}

// nextRank draws a rank in [0, n) (0 = hottest).
func (z *zipfGen) nextRank(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// scramble is the splitmix64 finalizer, used as the Feistel round
// function so hot items are not physically adjacent.
func scramble(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// feistelRound mixes one half-word with a per-round key.
func feistelRound(v, round uint64) uint64 {
	return scramble(v ^ (round+1)*0x9e3779b97f4a7c15)
}

// permute maps rank bijectively onto [0, n): a 4-round Feistel network
// over the smallest even-bit power-of-two domain covering n, cycle-walked
// until the image lands inside [0, n). Unlike a hash-mod-n scramble this
// is a true permutation — distinct Zipf ranks never merge onto one item
// and every item stays reachable. Deterministic and allocation-free; the
// domain is at most 4n, so the walk terminates in a few steps.
func (z *zipfGen) permute(rank int64) int64 {
	if z.n == 1 {
		return 0
	}
	v := uint64(rank)
	for {
		l := v >> z.halfBits
		r := v & z.halfMask
		for round := uint64(0); round < 4; round++ {
			l, r = r, l^(feistelRound(r, round)&z.halfMask)
		}
		v = l<<z.halfBits | r
		if v < uint64(z.n) {
			return int64(v)
		}
	}
}

// next draws a permuted item index in [0, n).
func (z *zipfGen) next(rng *rand.Rand) int64 {
	return z.permute(z.nextRank(rng))
}
