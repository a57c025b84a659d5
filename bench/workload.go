package main

import (
	"repro/internal/rng"
	"repro/service"
)

// workload is one traffic mix. Every op is one user-visible request:
// submit → follow the NDJSON stream to its end → GET the result, except
// for batch, whose op is one POST /v1/batches read to its last cell.
type workload struct {
	name string
	// spec builds an op's spec for a run seed, the way a user would write
	// it; the seed also seeds the uniform init (engine.SeedFollower), the
	// same way batch expansion applies a seed axis.
	spec func(seed uint64) service.Spec
	// hit ops resubmit prepped runs, so every one is a cache hit; batch ops
	// are batches. Otherwise every op is a miss with a fresh seed.
	hit, batch bool
}

// prepSpec is the spec of the prepped runs, which the hit and batch
// workloads resubmit.
var prepSpec = medianSpec(service.InitSpec{Kind: "uniform", N: 5000, M: 16})

// workloads: why each exists is in BENCHMARK.json and README.md.
var workloads = []workload{
	// Cache hits on reloaded runs: the serving path alone.
	{name: "hit", spec: prepSpec, hit: true},
	// 0.6 ms runs (auto picks the ball engine): the write path.
	{name: "miss-small", spec: medianSpec(service.InitSpec{Kind: "twovalue", N: 2000})},
	// 25 ms runs (auto picks the scalar count engine): the engine.
	{name: "miss-engine", spec: medianSpec(service.InitSpec{Kind: "uniform", N: 65536, M: 15})},
	// 16-cell seed sweeps, half repeats: expansion, fan-out, mixed hits.
	{name: "batch", spec: prepSpec, batch: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func medianSpec(init service.InitSpec) func(uint64) service.Spec {
	return func(seed uint64) service.Spec {
		s := service.Spec{Payload: &service.MedianSpec{Init: init, Rule: service.RuleSpec{Name: "median"}}}
		s.SetSeed(seed)
		return s
	}
}

// batchRequest is the batch workload's op: the seedless template swept
// over a seed axis, one cell per seed in axis order.
func batchRequest(w workload, seeds []uint64) service.BatchRequest {
	values := make([]float64, len(seeds))
	for i, s := range seeds {
		values[i] = float64(s)
	}
	return service.BatchRequest{Template: w.spec(0), Axes: []service.Axis{{Param: "seed", Values: values}}}
}

// Seeds. Every spec seed is drawn from an internal/rng stream keyed by the
// workload seed, a purpose and the client index. Seeds stay below 2^53 so
// a batch seed axis (float64 values) carries them exactly, and their low
// two bits are the drawing client's index (prepTag for prepped runs), so
// seeds drawn by different clients or by the prep can never collide.
const (
	seedSpace = 1 << 53
	prepTag   = 2
)

// Stream purposes.
const (
	purposePrep = iota + 1
	purposeHitSet
	purposeClient
)

func stream(seed uint64, purpose, idx int) *rng.Xoshiro256 {
	return rng.NewXoshiro256(rng.Mix64(rng.Mix64(seed^uint64(purpose)) + uint64(idx)))
}

func taggedSeed(g *rng.Xoshiro256, tag int) uint64 {
	return (4+g.Uint64n(seedSpace-4))&^3 | uint64(tag)
}

// prepSeeds are the seeds of the n prepped runs, distinct.
func prepSeeds(seed uint64, n int) []uint64 {
	g := stream(seed, purposePrep, 0)
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		if s := taggedSeed(g, prepTag); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
