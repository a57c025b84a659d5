// Quickstart: the median rule in five lines, then the same protocol under
// the paper's √n-bounded adversary.
//
// Run with:
//
//	go run ./examples/quickstart
//
// The first run starts from the worst case — every process holds a distinct
// value — and reaches exact consensus in O(log n) rounds (Theorem 1). The
// second run adds a balancing adversary that rewrites √n process states
// every round; perfect consensus is now impossible, so the run stops at the
// paper's almost stable consensus: all but O(√n) processes agree and stay
// agreed (Theorem 2/3).
package main

import (
	"fmt"
	"math"

	"repro/adversary"
	"repro/consensus"
	"repro/rules"
)

func main() {
	const n = 100_000

	// --- 1. No adversary: exact consensus from the worst-case start. ---
	res := consensus.Run(consensus.Config{
		Values: consensus.AllDistinct(n), // processes 1..n hold values 1..n
		Rule:   rules.Median{},
		Seed:   1,
	})
	fmt.Printf("no adversary:   %v\n", res)
	fmt.Printf("                log2(n) = %.1f — note rounds = O(log n)\n\n",
		math.Log2(n))

	// --- 2. √n-bounded adversary: almost stable consensus. -------------
	// Budget 0.5·√n: Theorem 2's "T ≤ √n" carries the usual hidden
	// constant — the drift of Lemma 15 must beat the adversary's per-round
	// erasure (Lemma 16 chooses "the constant c large enough"). At full
	// strength the balancer wins for a polynomially long time; the
	// tightness experiment (internal/papereval's E5) measures exactly that
	// crossover.
	adv := adversary.NewBalancer(adversary.Sqrt(0.5), 1, 2)
	res = consensus.Run(consensus.Config{
		Values:      consensus.TwoValue(n, n/2, 1, 2), // perfectly split
		Rule:        rules.Median{},
		Adversary:   adv,
		AlmostSlack: 3 * int(math.Sqrt(n)), // the paper's O(T) slack
		Seed:        1,
	})
	fmt.Printf("with adversary: %v\n", res)
	fmt.Printf("                adversary rewrites %d states/round; %d processes (>= n - O(sqrt n)) agree\n",
		adv.Budget(n), res.WinnerCount)

	// --- 3. Watching a run round by round. ------------------------------
	fmt.Println("\nround-by-round (n=1000, all distinct):")
	consensus.Run(consensus.Config{
		Values: consensus.AllDistinct(1000),
		Rule:   rules.Median{},
		Seed:   7,
		Observer: func(round int, vals []consensus.Value, counts []int64) {
			var distinct int
			var top int64
			for _, c := range counts {
				if c > 0 {
					distinct++
				}
				if c > top {
					top = c
				}
			}
			fmt.Printf("  round %2d: %4d distinct values, plurality %4d/1000\n",
				round, distinct, top)
		},
	})
}
