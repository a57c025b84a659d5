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
// Four interchangeable engines execute the same protocol contract:
//
//   - EngineBall: exact per-process simulation (supports every adversary
//     hook, observers, parallel execution).
//   - EngineCount: distribution-level simulation, O(k) memory for k live
//     values. Each round moves every value's processes with one exact
//     multinomial over its transition row, O(k^(s+1)) for s samples per
//     process whatever n is; large supports sample per process.
//   - EngineTwoBin: exact binomial-update simulation for two-value states,
//     O(1) memory per round — usable with n up to 2^62.
//   - EngineGossip: full message-passing simulation of the paper's network
//     model (private peer numberings, per-round request caps, adversarially
//     selected drops).
//
// EngineAuto picks the fastest engine that supports the requested
// configuration.
package consensus

import (
	"fmt"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/gossip"
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
	// EngineAuto picks TwoBin for two-value states when possible, Count
	// for large populations, and Ball otherwise.
	EngineAuto Engine = iota
	// EngineBall is the exact per-process engine.
	EngineBall
	// EngineCount is the distribution-level engine: exact transition-row
	// rounds independent of n (per-process sampling for large support).
	EngineCount
	// EngineTwoBin is the exact binomial two-value engine.
	EngineTwoBin
	// EngineGossip is the message-passing network simulator.
	EngineGossip
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
	// engine, gossip included). Slices are reused across calls.
	Observer func(round int, vals []Value, counts []int64)
	// Gossip configures EngineGossip (ignored otherwise).
	Gossip GossipConfig
}

// GossipConfig carries the message-passing model's knobs.
type GossipConfig struct {
	// CapFactor scales the per-round request capacity ⌈CapFactor·log₂ n⌉;
	// 0 = default 4; negative = unlimited.
	CapFactor float64
	// Selector decides which requests saturated processes answer
	// (nil = arrival order). See gossipx for adversarial selectors.
	Selector DropSelector
}

// DropSelector re-exports the gossip drop-selection contract.
type DropSelector = gossip.DropSelector

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
	// Messages holds gossip-engine telemetry (zero for other engines).
	Messages MessageStats
}

// MessageStats reports message-level telemetry from EngineGossip.
type MessageStats struct {
	RequestsSent    int64
	RequestsDropped int64
	MaxInDegree     int
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
	engine := cfg.Engine
	if engine == EngineAuto {
		d := initial.Dist()
		engine = pick(d.N(), d.Support(), cfg)
	}
	switch engine {
	case EngineBall:
		return fromCore(core.NewBallEngine(initial, cfg.Rule, cfg.Adversary, cfg.Seed, coreOpts(cfg)).Run())
	case EngineCount:
		return fromCore(core.NewCountEngine(initial, cfg.Rule, cfg.Adversary, cfg.Seed, coreOpts(cfg)).Run())
	case EngineTwoBin:
		return runTwoBin(cfg, initial.Dist())
	case EngineGossip:
		nw := gossip.New(initial, cfg.Rule, cfg.Adversary, cfg.Seed, gossip.Options{
			CapFactor:   cfg.Gossip.CapFactor,
			Selector:    cfg.Gossip.Selector,
			MaxRounds:   cfg.MaxRounds,
			AlmostSlack: cfg.AlmostSlack,
			Window:      cfg.Window,
			Observer:    cfg.Observer,
		})
		res := nw.Run()
		return Result{
			Rounds: res.Rounds, Reason: res.Reason,
			Winner: res.Winner, WinnerCount: res.WinnerCount,
			Messages: MessageStats{
				RequestsSent:    res.Stats.RequestsSent,
				RequestsDropped: res.Stats.RequestsDropped,
				MaxInDegree:     res.Stats.MaxInDegree,
			},
		}
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
// initial state: cfg.Values is ignored and the count-capable engines
// (EngineCount, EngineTwoBin) run directly on the distribution in O(m)
// memory. EngineAuto picks among the engines exactly as Run does — when it
// (or an explicit cfg.Engine) lands on a per-process engine (EngineBall,
// EngineGossip), the distribution is expanded to the O(n) vector, so the
// contract stays total; callers chasing the n ~ 10⁹ regime should pin
// EngineCount or EngineTwoBin.
func RunDist(cfg Config, d Dist) Result {
	if len(d.Vals) == 0 {
		panic("consensus: RunDist with an empty distribution")
	}
	if cfg.Rule == nil {
		panic("consensus: Config.Rule is nil")
	}
	engine := cfg.Engine
	if engine == EngineAuto {
		engine = pick(d.N(), d.Support(), cfg)
	}
	switch engine {
	case EngineCount:
		return fromCore(core.NewCountEngineDist(d, cfg.Rule, cfg.Adversary, cfg.Seed, coreOpts(cfg)).Run())
	case EngineTwoBin:
		return runTwoBin(cfg, d)
	default:
		cfg.Values = assign.Expand(d)
		cfg.Engine = engine
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

func runTwoBin(cfg Config, d assign.Dist) Result {
	if d.Support() > 2 {
		panic("consensus: EngineTwoBin needs at most two distinct values")
	}
	low, high, l := twoBinShape(d)
	return fromCore(core.NewTwoBinEngine(d.N(), l, low, high, cfg.Adversary, cfg.Seed, coreOpts(cfg)).Run())
}

// pick chooses an engine for EngineAuto from the population size and the
// distinct-value support — distribution-level inputs, so spec-driven runs
// can resolve the engine without materializing anything.
func pick(n int64, support int, cfg Config) Engine {
	// TwoBin requires median/majority semantics (it hard-codes the
	// two-value median update) and a count-level or absent adversary.
	if support <= 2 && cfg.Rule.Samples() == 2 && isMedianLike(cfg.Rule) && countCompatible(cfg.Adversary) && cfg.Observer == nil {
		return EngineTwoBin
	}
	if n >= 1<<16 && countCompatible(cfg.Adversary) {
		return EngineCount
	}
	return EngineBall
}

func isMedianLike(r Rule) bool {
	switch r.Name() {
	case "median", "majority", "median-2choices":
		return true
	}
	return false
}

func countCompatible(a Adversary) bool {
	if a == nil {
		return true
	}
	_, ok := a.(model.CountAdversary)
	return ok
}

func twoBinShape(d assign.Dist) (low, high Value, l int64) {
	switch d.Support() {
	case 1:
		// Degenerate: model as the value plus a phantom empty higher bin.
		return d.Vals[0], d.Vals[0] + 1, d.Counts[0]
	default:
		return d.Vals[0], d.Vals[1], d.Counts[0]
	}
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
// 1..m — the paper's average-case model (Section 5). Deterministic in seed.
func UniformRandom(n, m int, seed uint64) []Value {
	return assign.Uniform(n, m, rng.NewXoshiro256(seed))
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
