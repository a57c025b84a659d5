package consensus

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/initspec"
)

// This file holds the package's name tables: serializable names for
// engines and adversary timings, and the builders of initial states from
// the init-kind table of internal/initspec. It exists so the service layer
// (package service) can reconstruct a Config from a JSON spec without
// hard-coding knowledge of every engine and initial-state family.

// engineNames maps serialized engine names to Engine values. "" is accepted
// as EngineAuto so omitted spec fields behave like zero-valued Config fields.
var engineNames = map[string]Engine{
	"auto":   EngineAuto,
	"ball":   EngineBall,
	"count":  EngineCount,
	"twobin": EngineTwoBin,
}

// engineList is engineNames' keys, sorted once.
var engineList = slices.Sorted(maps.Keys(engineNames))

// EngineByName resolves a serialized engine name ("" means "auto").
func EngineByName(name string) (Engine, error) {
	if name == "" {
		return EngineAuto, nil
	}
	e, ok := engineNames[name]
	if !ok {
		return EngineAuto, fmt.Errorf("consensus: unknown engine %q (known: %v)", name, engineList)
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

// EngineNames returns the serialized engine names in sorted order, in a
// slice the caller owns.
func EngineNames() []string { return slices.Clone(engineList) }

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

// InitSpec is the serializable description of an initial state. It is an
// alias of initspec.Spec — the table itself lives in the leaf package
// internal/initspec so that internal/gossip (which this package imports)
// can resolve init specs without an import cycle; this package remains the
// public surface.
type InitSpec = initspec.Spec

// BuildInit materializes the initial state described by s.
func BuildInit(s InitSpec) ([]Value, error) { return initspec.Build(s) }

// BuildInitDist materializes the value distribution described by s — the
// O(m) count-level initial state RunDist consumes — without building the
// per-process vector.
func BuildInitDist(s InitSpec) (Dist, error) { return initspec.BuildDist(s) }

// InitKinds returns the init kinds in sorted order.
func InitKinds() []string { return initspec.Kinds() }
