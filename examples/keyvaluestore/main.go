// Replicated key-value store: anti-entropy version reconciliation on the
// paper's actual network model — the synchronous, anonymous, completely
// connected message-passing system with logarithmic per-round contact
// budgets (Section 1.1).
//
// Run with:
//
//	go run ./examples/keyvaluestore
//
// A cluster of n replicas each hold a version identifier for one hot key.
// A network partition has healed and left the cluster split between several
// divergent versions; in addition, a low-rate corruption source (bit-rot,
// misbehaving nodes, operators poking at state) keeps resurrecting stale
// versions — the self-stabilization problem: the protocol must converge
// from *any* state, and re-converge after every perturbation, without any
// node ever being aware that consensus has been reached (stabilizing
// consensus, Angluin–Fischer–Jiang [1]).
//
// Each replica runs the median rule over version IDs via gossip: per round
// it sends value requests to two uniformly random peers, answers at most
// O(log n) requests itself (overloaded replicas drop the excess — under
// pressure the drop choice here is adversarial, the worst case the paper
// allows), and adopts the median of its own and the two fetched versions.
//
// The demo measures what a storage operator cares about: rounds to
// re-convergence, messages per replica per round, request-drop rate under
// the cap, and behaviour under continuous corruption. Every run is a spec
// of the "gossip" kind, executed locally through service.Execute.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/adversary"
	"repro/service"
)

const nReplicas = 8_192

// The live versions after the partition heals.
const (
	sideA    = 7001 // side A of the partition, the leading version
	sideB    = 7002 // side B
	laggards = 6990 // replicas that missed both sides' writes
)

func main() {
	// Post-partition state: three divergent versions with skewed support,
	// plus a long tail of stale versions, each on one replica and older
	// than every live version. The blocks init takes it as a count vector:
	// counts[i] replicas hold version base+1+i.
	a, b, l := nReplicas*45/100, nReplicas*35/100, nReplicas*15/100
	tail := nReplicas - a - b - l
	base := int64(laggards - tail - 1)
	counts := make([]int64, sideB-base)
	for i := range tail {
		counts[i] = 1 // stale tail, all distinct
	}
	counts[laggards-base-1] = int64(l)
	counts[sideA-base-1] = int64(a)
	counts[sideB-base-1] = int64(b)
	fmt.Printf("cluster of %d replicas, %d distinct versions after partition heal\n\n", nReplicas, tail+3)

	// run executes one gossip spec on the cluster and maps the winning
	// version back from its index in counts.
	run := func(seed uint64, p service.GossipSpec) service.RunResult {
		p.Init = service.InitSpec{Kind: "blocks", Counts: counts}
		res, err := service.Execute(service.Spec{Kind: service.KindGossip, Seed: seed, MaxRounds: 10_000, Payload: &p}, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		res.Winner += base
		return res
	}
	dropRate := func(res service.RunResult) float64 {
		return 100 * float64(res.Messages.RequestsDropped) / float64(res.Messages.RequestsSent)
	}

	// --- 1. Clean reconciliation on the message-passing model. ---------
	res := run(2024, service.GossipSpec{})
	perReplica := float64(res.Messages.RequestsSent) / float64(nReplicas) / float64(max(res.Rounds, 1))
	fmt.Printf("reconciliation: %s\n", describe(res))
	fmt.Printf("  requests/replica/round: %.2f   dropped: %d (%.4f%%)   max in-degree: %d\n\n",
		perReplica, res.Messages.RequestsDropped, dropRate(res), res.Messages.MaxInDegree)

	// --- 2. Tight request caps: overloaded replicas drop requests. -----
	// The adversary drops the requests of the leading version's holders
	// first.
	fmt.Println("under request-cap pressure (adversarial drop selection):")
	for _, capFactor := range []float64{4, 1, 0.5} {
		r := run(2025, service.GossipSpec{
			CapFactor: capFactor,
			Selector:  fmt.Sprintf("drop-value:%d", sideA-base),
		})
		fmt.Printf("  cap %.1f·log2(n): %3d rounds, drop rate %6.3f%%\n", capFactor, r.Rounds, dropRate(r))
	}

	// --- 3. Continuous low-rate corruption: almost stable consensus. ---
	// A T-bounded corruption source keeps flipping √n replicas per round
	// back to stale versions. The cluster still pins all but O(√n)
	// replicas to one version, forever — and every individual corruption
	// is healed within a few rounds.
	noise := adversary.BudgetSpec{Kind: "sqrt", Factor: 0.5}
	slack := 3 * int(math.Sqrt(nReplicas))
	res = run(2026, service.GossipSpec{
		Adversary:   &service.AdversarySpec{Name: "random-noise", Budget: noise},
		AlmostSlack: slack,
	})
	fmt.Printf("\nwith continuous corruption of %d replicas/round: %s\n", adversary.Sqrt(noise.Factor)(nReplicas), describe(res))
	fmt.Printf("  (almost stable consensus: >= n − 3·sqrt(n) = %d replicas pinned)\n", nReplicas-slack)
}

func describe(res service.RunResult) string {
	return fmt.Sprintf("%s after %d rounds (winner version %d held by %d)",
		res.Reason, res.Rounds, res.Winner, res.WinnerCount)
}
