// Package differential is the exact-vs-simulation gate: its test suite
// pins the Monte-Carlo engines' empirical statistics inside confidence
// bands of the analytic two-bin Markov chain (internal/exact), so the
// closed-form Section 3 results enforce simulation correctness on every
// change.
//
// The two-value scalar dynamics and the exact chain describe the same
// process — a run of the median kind over a twovalue init IS a sample of
// the chain, so its rounds-to-consensus is a draw of the chain's
// absorption time and its winner a Bernoulli draw of the chain's win
// probability. The suite runs fixed-seed trial batches of each count-level
// engine (twobin, and count on its transition-row round) through
// engine.Execute and requires:
//
//   - the mean absorption time within a 5σ band of the exact expectation,
//   - the win rate within a 5σ band of the exact win probability,
//   - the empirical absorption CDF within a 5σ band of the exact CDF at
//     probe rounds.
//
// Seeds are fixed, so every band check is deterministic: a failure is a
// genuine statistical discrepancy (an engine bug or a changed sampling
// path), never flakiness — which is what lets CI treat this suite as a
// hard gate (the differential job in ci.yml).
//
// The package has no non-test API; this file exists so the suite is part
// of the ordinary build and `go test ./...` tier-1 surface.
package differential
