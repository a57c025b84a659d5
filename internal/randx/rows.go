package randx

import (
	"math"

	"repro/internal/rng"
)

// This file implements the exact transition-row round shared by the count
// engines (internal/core.CountEngine and multidim.CountEngine).
//
// In the paper's process (Section 2.1) balls are exchangeable: a ball's
// next value depends only on its own value and on the current value
// distribution p = counts/n, because its s peers are drawn uniformly with
// replacement. So every ball in live bin v moves independently to bin u
// with the same probability
//
//	P(v→u) = Σ_{w ∈ [k]^s : Update(v, w) = u}  p_{w₁}·…·p_{w_s},
//
// and the c_v balls of bin v move together as one Multinomial(c_v,
// P(v→·)) draw. That is distributed exactly like per-ball sampling — it is
// the k-value version of the two-bin update Bin(L, 1−(1−p)²) +
// Bin(n−L, p²) — but costs k^(s+1) rule calls and k multinomials per
// round, whatever n is.

// RowRule is the update rule a Rows round applies, restated over bins. A
// ball in live bin own whose s samples landed in live bins sample[0..s-1]
// moves to output bin Next(own, sample). Output bins are small non-negative
// ids of the caller's choosing — they index the kernel's row scratch, so
// they should be dense. Move then receives the drawn moves: c balls of the
// row being drawn go to output bin to.
type RowRule interface {
	Next(own int, sample []int32) int32
	Move(to int32, c int64)
}

// rowRoundFactor is the cost of sampling one ball in units of one
// row-tuple step: a sampled round costs about rowRoundFactor·n and a Rows
// round about k^(s+1) (plus k multinomials), so the rows win once
// rowRoundFactor·n ≥ k^(s+1). A tuple step is a rule call plus a row
// update; a sampled ball is s alias draws, a rule call and an accumulator
// bump. For the median rule on a 2-vCPU x86-64 VM both came out at 20–60
// ns in either engine, putting the crossover at 0.6–1.7·k³ over
// k = 3…36. The switch rows of BenchmarkCountRound time one round on each
// side of n = k³ (k = 16), where the rows measured 0.55–0.75 of the
// per-ball cost, so a later change to either path can re-check the
// constant.
const rowRoundFactor = 1

// RowsCheaper reports whether a Rows round over k live bins with s samples
// per ball is cheaper than sampling n balls one by one. It is a pure
// function of (n, k, s), so an engine that switches on it each round stays
// deterministic in its seed.
func RowsCheaper(n int64, k, s int) bool {
	return rowRoundFactor*float64(n) >= math.Pow(float64(k), float64(s+1))
}

// Rows is the reusable workspace of the transition-row round. The zero
// value is ready to use; once its buffers have grown to the working
// support, a round allocates nothing.
type Rows struct {
	p     []float64 // live bin probabilities counts/n
	tuple []int32   // the sample tuple being enumerated (odometer)
	prod  []float64 // prod[i] = p[tuple[0]]·…·p[tuple[i-1]]
	row   []float64 // P(own→·) accumulator, by output bin
	seen  []bool    // output bins touched by the current row
	hit   []int32   // touched output bins, in first-touch order
	probs []float64 // row restricted to hit, the multinomial weights
	draws []int64   // multinomial draw, parallel to hit
}

// Round moves every ball of the live distribution counts (positive counts,
// one per live bin) one synchronous round under rule with s samples per
// ball: row by row it accumulates P(own→·) over all k^s ordered sample
// tuples, draws Multinomial(counts[own], P(own→·)) from g, and reports the
// moves through rule.Move in first-touch order of the output bins.
//
//consensus:hotpath
func (r *Rows) Round(g *rng.Xoshiro256, counts []int64, s int, rule RowRule) {
	k := len(counts)
	var n int64
	for _, c := range counts {
		n += c
	}
	r.p = growFloats(r.p, k)
	for i, c := range counts {
		r.p[i] = float64(c) / float64(n)
	}
	r.tuple = growInts(r.tuple, s)
	r.prod = growFloats(r.prod, s+1)
	r.prod[0] = 1
	for own, c := range counts {
		if c == 0 {
			continue
		}
		r.accumulate(own, k, s, rule)
		r.probs = r.probs[:0]
		for _, to := range r.hit {
			r.probs = append(r.probs, r.row[to])
			r.row[to], r.seen[to] = 0, false
		}
		r.draws = growInt64s(r.draws, len(r.hit))
		Multinomial(g, c, r.probs, r.draws)
		for i, to := range r.hit {
			if r.draws[i] > 0 {
				rule.Move(to, r.draws[i])
			}
		}
	}
}

// accumulate fills row (and hit) with P(own→·): it walks the k^s sample
// tuples in odometer order with the last digit innermost, keeping the
// prefix products so each tuple costs one rule call and one multiply.
//
//consensus:hotpath
func (r *Rows) accumulate(own, k, s int, rule RowRule) {
	r.hit = r.hit[:0]
	if s == 0 {
		r.add(rule.Next(own, r.tuple), 1)
		return
	}
	for i := range r.tuple {
		r.tuple[i] = 0
		r.prod[i+1] = r.prod[i] * r.p[0]
	}
	last := s - 1
	for {
		base := r.prod[last]
		for t, pt := range r.p {
			r.tuple[last] = int32(t)
			r.add(rule.Next(own, r.tuple), base*pt)
		}
		i := last - 1
		for ; i >= 0; i-- {
			if r.tuple[i]++; int(r.tuple[i]) < k {
				break
			}
			r.tuple[i] = 0
		}
		if i < 0 {
			return
		}
		for j := i; j < last; j++ {
			r.prod[j+1] = r.prod[j] * r.p[r.tuple[j]]
		}
	}
}

// add puts probability w on output bin to of the current row.
//
//consensus:hotpath
func (r *Rows) add(to int32, w float64) {
	for int(to) >= len(r.row) {
		r.row = append(r.row, 0)
		r.seen = append(r.seen, false)
	}
	if !r.seen[to] {
		r.seen[to] = true
		r.hit = append(r.hit, to)
	}
	r.row[to] += w
}

// growInt64s is growFloats for int64 slices.
//
//consensus:hotpath
func growInt64s(buf []int64, k int) []int64 {
	if cap(buf) >= k {
		return buf[:k]
	}
	return make([]int64, k)
}
