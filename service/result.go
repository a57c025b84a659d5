package service

import (
	"repro/engine"
	"repro/service/store"
)

// RunResult is the serializable outcome of a run of any spec kind, plus
// the effective seed the run used, so any cached result can be reproduced.
// It is an alias of engine.Result: the scalar fields (Winner, WinnerCount)
// are shared by every family, the optional fields carry each family's
// extra telemetry.
type RunResult = engine.Result

// MessageStats is the gossip kind's message-level telemetry.
type MessageStats = engine.MessageStats

// RoundRecord is one line of a run's round-by-round NDJSON stream: the
// distribution summary the engines report through their Observe hook (an
// alias of engine.Record). The engines observe the state once before the
// first round and once after every executed round, so a run of R rounds
// yields R+1 records and record 0 is the initial state.
type RoundRecord = engine.Record

// StoredRun is the persisted form of one completed run — the record the
// Store backend commits on finish and replays on startup (an alias of
// store.Run, the unit of the file store's CRC-framed log). It carries the
// cache entry (spec hash, result, round records) plus the job metadata
// needed to resurrect the run in the history.
type StoredRun = store.Run

// ErrCancelled is returned by Execute when the cancelled callback fired.
var ErrCancelled = engine.ErrCancelled

// Execute runs a spec of any registered kind synchronously, outside any
// service: engine.Execute admits it as Submit does, with no size bound, so
// a spec that fails validation fails here with the error Submit gives, and
// runs it. observe, when non-nil, receives one RoundRecord per executed
// round. cancelled, when non-nil, is polled once per round (through the
// engines' shared observer hook, their per-round cancellation point);
// returning true aborts the run with ErrCancelled. Any engine panic is
// converted into an error so a bad spec can never take down the serving
// process.
func Execute(spec Spec, observe func(RoundRecord), cancelled func() bool) (RunResult, error) {
	return engine.Execute(spec, observe, cancelled)
}
