// Package consensus is the public entry point of the library: a
// configuration-driven runner for the stabilizing-consensus protocols of
// Doerr, Goldberg, Minder, Sauerwald and Scheideler, "Stabilizing Consensus
// with the Power of Two Choices" (SPAA 2011).
//
// The model: n processes in an anonymous, completely connected network hold
// values and proceed in synchronous rounds. Each round, every process
// samples a small number of uniformly random peers (two, for the median
// rule) and applies a local update rule. A T-bounded adversary may rewrite
// the state of up to T processes at the start of every round, restricted to
// the initial value set. The goal is *stabilizing consensus*: from any
// starting state, eventually all (or, under adversity, all but O(T))
// processes hold the same initial value, forever.
//
// # Quick start
//
//	res := consensus.Run(consensus.Config{
//		Values: consensus.AllDistinct(100000), // worst case: all distinct
//		Rule:   rules.Median{},
//		Seed:   1,
//	})
//	fmt.Println(res) // consensus after ~30 rounds
//
// # Engines
//
// Two engines execute the same protocol contract:
//
//   - EngineBall: exact per-process simulation (supports every adversary
//     hook, observers, parallel execution).
//   - EngineCount: distribution-level simulation, O(k) memory for k live
//     values, exact rounds whatever n is. Median, median-2k, minimum,
//     maximum and voter rounds cost O(k): their output is an order
//     statistic of the samples, so each value's movers land in one pass.
//     Other rules move every value's processes with one multinomial over
//     its transition row, O(k^(s+1)) for s samples per process, and large
//     supports sample per process. On two values a median round is two
//     binomials, so n may reach 2^62.
//
// EngineTwoBin is the count engine restricted to at most two initial
// values, kept so existing specs naming it still run. EngineAuto picks the
// count engine unless the adversary has no count view, then the ball
// engine. The paper's full message-passing network model (private peer
// numberings, per-round request caps, adversarially selected drops) is the
// "gossip" spec kind, run through service.Execute or a service.
package consensus

import (
	"fmt"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
)

// Value is a process value; the protocol treats values as opaque ordered
// integers (the paper assumes O(log n)-bit representations).
type Value = model.Value

// Rule is the local update rule contract; see package rules for
// implementations (Median is the paper's contribution).
type Rule = model.Rule

// Adversary is the T-bounded adversary contract; see package adversary for
// implementations and budget helpers.
type Adversary = model.Adversary

// Rand is the randomness interface handed to adversaries.
type Rand = model.Rand

// StopReason reports why a run ended.
type StopReason = model.StopReason

// Re-exported stop reasons.
const (
	StopMaxRounds    = model.StopMaxRounds
	StopConsensus    = model.StopConsensus
	StopAlmostStable = model.StopAlmostStable
)

// Engine selects the simulation engine.
type Engine int

const (
	// EngineAuto picks Count when the adversary is nil or has a count view
	// (model.CountAdversary), and Ball otherwise.
	EngineAuto Engine = iota
	// EngineBall is the exact per-process engine.
	EngineBall
	// EngineCount is the distribution-level engine: exact transition-row
	// rounds independent of n (per-process sampling for large support).
	EngineCount
	// EngineTwoBin is EngineCount on at most two initial values, kept so
	// existing specs naming it still run; more values panic.
	EngineTwoBin
)

// Timing selects when the adversary acts (see the paper's two models).
type Timing = core.Timing

// Re-exported adversary timings.
const (
	// BeforeRound: states are rewritten at the beginning of each round
	// (Section 1.1).
	BeforeRound = core.BeforeRound
	// AfterChoices: outcomes are manipulated after the random choices
	// (Section 3, Theorem 10).
	AfterChoices = core.AfterChoices
)

// Config describes one run.
type Config struct {
	// Values is the initial per-process assignment (the self-stabilization
	// start state; any state is legal).
	Values []Value
	// Rule is the update rule; nil is invalid (pick rules.Median{}).
	Rule Rule
	// Adversary is the optional T-bounded adversary (nil = none).
	Adversary Adversary
	// Seed makes the run reproducible.
	Seed uint64
	// MaxRounds caps the run (0 = engine default, 2^20).
	MaxRounds int
	// AlmostSlack enables almost-stable detection: stop when >= n−slack
	// processes agree on one fixed value for Window consecutive rounds.
	// The paper's guarantee makes O(T) the natural slack.
	AlmostSlack int
	// Window is the stability window (0 = default 8).
	Window int
	// Timing selects the adversary hook point.
	Timing Timing
	// Engine selects the simulator.
	Engine Engine
	// Workers parallelises the ball engine (0/1 = sequential).
	Workers int
	// Observer, when non-nil, receives the per-round distribution (every
	// engine). Slices are reused across calls.
	Observer func(round int, vals []Value, counts []int64)
}

// Result reports the outcome of a run.
type Result struct {
	// Rounds executed before stopping.
	Rounds int
	// Reason the run stopped.
	Reason StopReason
	// Winner is the final plurality (= consensus) value.
	Winner Value
	// WinnerCount is the number of processes holding Winner.
	WinnerCount int64
	// StableSince is the first round of the final stability window.
	StableSince int
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("%s after %d rounds (winner %d held by %d)",
		r.Reason, r.Rounds, r.Winner, r.WinnerCount)
}

// Run executes the configured simulation and returns its Result.
func Run(cfg Config) Result {
	if len(cfg.Values) == 0 {
		panic("consensus: Config.Values is empty")
	}
	if cfg.Rule == nil {
		panic("consensus: Config.Rule is nil")
	}
	initial := assign.Config(cfg.Values)
	switch pick(cfg.Engine, cfg.Adversary) {
	case EngineBall:
		return fromCore(core.NewBallEngine(initial, cfg.Rule, cfg.Adversary, cfg.Seed, coreOpts(cfg)).Run())
	case EngineCount, EngineTwoBin:
		return RunDist(cfg, initial.Dist())
	default:
		panic("consensus: unknown engine")
	}
}

// Dist is the distribution-level initial state: Vals lists the distinct
// values in increasing order and Counts[i] processes hold Vals[i]. It is
// the O(m) representation the count-native init builders (BuildInitDist)
// produce, so giant populations never materialize a per-process vector.
type Dist = assign.Dist

// RunDist executes the configured simulation over a distribution-level
// initial state: cfg.Values is ignored and the count engine (EngineCount,
// EngineTwoBin) runs directly on the distribution in O(m) memory. It is
// the one place that checks EngineTwoBin's at most two values. EngineAuto
// resolves exactly as in Run; when it (or an explicit cfg.Engine) lands on
// the per-process EngineBall, the distribution is expanded to the O(n)
// vector, so the contract stays total.
func RunDist(cfg Config, d Dist) Result {
	if len(d.Vals) == 0 {
		panic("consensus: RunDist with an empty distribution")
	}
	if cfg.Rule == nil {
		panic("consensus: Config.Rule is nil")
	}
	switch pick(cfg.Engine, cfg.Adversary) {
	case EngineTwoBin:
		if d.Support() > 2 {
			panic("consensus: EngineTwoBin needs at most two distinct values")
		}
		fallthrough
	case EngineCount:
		return fromCore(core.NewCountEngineDist(d, cfg.Rule, cfg.Adversary, cfg.Seed, coreOpts(cfg)).Run())
	default:
		cfg.Values = assign.Expand(d)
		return Run(cfg)
	}
}

func coreOpts(cfg Config) core.Options {
	return core.Options{
		MaxRounds:   cfg.MaxRounds,
		AlmostSlack: cfg.AlmostSlack,
		Window:      cfg.Window,
		Timing:      cfg.Timing,
		Workers:     cfg.Workers,
		Observer:    cfg.Observer,
	}
}

// pick resolves the engine a run executes on: an explicit engine as
// given, and EngineAuto as the count engine when the adversary is nil or
// has a count view, else the ball engine.
func pick(e Engine, adv Adversary) Engine {
	if e != EngineAuto {
		return e
	}
	if _, ok := adv.(model.CountAdversary); ok || adv == nil {
		return EngineCount
	}
	return EngineBall
}

func fromCore(r core.Result) Result {
	return Result{
		Rounds: r.Rounds, Reason: r.Reason, Winner: r.Winner,
		WinnerCount: r.WinnerCount, StableSince: r.StableSince,
	}
}

// AllDistinct returns the worst-case initial state: n processes with n
// distinct values 1..n (the paper's "all-one" assignment, the finest
// configuration).
func AllDistinct(n int) []Value { return assign.AllDistinct(n) }

// UniformRandom places each of n processes uniformly into one of m values
// 1..m — the paper's average-case model (Section 5). Deterministic in seed,
// and drawn from the same stream as the "uniform" init kind
// (rng.NewInitStream), so a run may reuse seed as its own.
func UniformRandom(n, m int, seed uint64) []Value {
	return assign.Uniform(n, m, rng.NewInitStream(seed))
}

// TwoValue returns n processes of which nLow hold low and the rest hold
// high — the two-bin worst-case family of Section 3.
func TwoValue(n, nLow int, low, high Value) []Value {
	return assign.TwoValue(n, nLow, low, high)
}

// Blocks builds an initial state from a count vector: counts[i] processes
// hold value i+1.
func Blocks(counts []int64) []Value { return assign.Blocks(counts) }

// EvenBlocks spreads n processes over m values as evenly as possible.
func EvenBlocks(n, m int) []Value { return assign.EvenBlocks(n, m) }

// IsConsensus reports whether all processes hold one value.
func IsConsensus(values []Value) bool { return assign.Config(values).IsConsensus() }

// Agreement returns the plurality value and the number of processes holding
// it.
func Agreement(values []Value) (Value, int64) {
	d := assign.Config(values).Dist()
	if d.Support() == 0 {
		return 0, 0
	}
	return d.MaxCount()
}
