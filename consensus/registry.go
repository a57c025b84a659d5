package consensus

import (
	"fmt"
	"sort"

	"repro/internal/initspec"
)

// This file is the package's registration surface: serializable names for
// engines and adversary timings, and a name→generator registry for initial
// states. It exists so the service layer (package service) can reconstruct a
// Config from a JSON spec without hard-coding knowledge of every engine and
// initial-state family.

// engineNames maps serialized engine names to Engine values. "" is accepted
// as EngineAuto so omitted spec fields behave like zero-valued Config fields.
var engineNames = map[string]Engine{
	"auto":   EngineAuto,
	"ball":   EngineBall,
	"count":  EngineCount,
	"twobin": EngineTwoBin,
	"gossip": EngineGossip,
}

// EngineByName resolves a serialized engine name ("" means "auto").
func EngineByName(name string) (Engine, error) {
	if name == "" {
		return EngineAuto, nil
	}
	e, ok := engineNames[name]
	if !ok {
		return EngineAuto, fmt.Errorf("consensus: unknown engine %q (known: %v)", name, EngineNames())
	}
	return e, nil
}

// String returns the engine's serialized name.
func (e Engine) String() string {
	for name, v := range engineNames {
		if v == e {
			return name
		}
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// EngineNames returns the serialized engine names in sorted order.
func EngineNames() []string {
	out := make([]string, 0, len(engineNames))
	for name := range engineNames {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TimingByName resolves a serialized adversary timing ("" means
// "before-round", the paper's Section 1.1 default).
func TimingByName(name string) (Timing, error) {
	switch name {
	case "", "before-round":
		return BeforeRound, nil
	case "after-choices":
		return AfterChoices, nil
	default:
		return BeforeRound, fmt.Errorf("consensus: unknown timing %q (known: before-round, after-choices)", name)
	}
}

// TimingName returns the serialized name of a timing.
func TimingName(t Timing) string { return t.String() }

// InitSpec is the serializable description of an initial state. It is an
// alias of initspec.Spec — the registry itself lives in the leaf package
// internal/initspec so that internal/gossip (which this package imports)
// can resolve init specs without an import cycle; this package remains the
// public surface.
type InitSpec = initspec.Spec

// InitGenerator materializes an initial state from its spec (alias of
// initspec.Generator; see that type for the Check/Normalize/Size hooks).
type InitGenerator = initspec.Generator

// RegisterInit adds a named initial-state generator, panicking on duplicates.
func RegisterInit(kind string, g InitGenerator) { initspec.Register(kind, g) }

// BuildInit materializes the initial state described by s.
func BuildInit(s InitSpec) ([]Value, error) { return initspec.Build(s) }

// BuildInitDist materializes the value distribution described by s — the
// O(m) count-level initial state RunDist consumes — without building the
// per-process vector when the generator is count-native.
func BuildInitDist(s InitSpec) (Dist, error) { return initspec.BuildDist(s) }

// InitSupport reports an upper bound on the number of distinct values the
// init spec realizes, computed from the spec alone (no O(n) pre-pass).
// 0 means unknown (unregistered kind or no Support hook).
func InitSupport(s InitSpec) int64 { return initspec.Support(s) }

// CheckInit validates an init spec without materializing the state when the
// generator provides a Check, falling back to generate-and-discard.
func CheckInit(s InitSpec) error { return initspec.Check(s) }

// NormalizeInit rewrites an init spec to its canonical form. Unknown kinds
// and generators without a Normalize hook pass through unchanged.
func NormalizeInit(s InitSpec) InitSpec { return initspec.Normalize(s) }

// InitSize reports the population an init spec would materialize, without
// allocating it. 0 means unknown (unregistered kind or no Size hook).
func InitSize(s InitSpec) int64 { return initspec.Size(s) }

// InitKinds returns the registered init kinds in sorted order.
func InitKinds() []string { return initspec.Kinds() }
