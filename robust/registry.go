package robust

import "fmt"

// This file is the package's registration surface, mirroring the naming
// pattern of consensus.TimingByName: serializable names for the crash-fault
// modes, plus spec-level validation that does not allocate the O(n) state,
// so the service layer can reconstruct a robust run from a JSON spec.

// Mode names for the crashed-process fault model (see Options.Silent).
const (
	// ModeResponsive leaves a crashed process's memory readable.
	ModeResponsive = "responsive"
	// ModeSilent makes queries to crashed processes count as lost.
	ModeSilent = "silent"
)

// ModeByName resolves a serialized fault-mode name to the Silent flag.
// "" means "responsive", the package default.
func ModeByName(name string) (silent bool, err error) {
	switch name {
	case "", ModeResponsive:
		return false, nil
	case ModeSilent:
		return true, nil
	default:
		return false, fmt.Errorf("robust: unknown mode %q (known: %v)", name, Modes())
	}
}

// ModeName returns the serialized name of a fault mode.
func ModeName(silent bool) string {
	if silent {
		return ModeSilent
	}
	return ModeResponsive
}

// Modes returns the serialized mode names in sorted order.
func Modes() []string { return []string{ModeResponsive, ModeSilent} }

// Check validates engine options against a population size without
// materializing any state — the spec-validation hook NewEngine's panics
// are too late for.
func Check(n int, opts Options) error {
	if n <= 0 {
		return fmt.Errorf("robust: population must be positive, got %d", n)
	}
	if !(opts.LossProb >= 0 && opts.LossProb <= 1) { // NaN fails both
		return fmt.Errorf("robust: LossProb %v outside [0,1]", opts.LossProb)
	}
	if opts.Crashes < 0 || opts.Crashes >= n {
		return fmt.Errorf("robust: Crashes %d outside [0, n) for n=%d", opts.Crashes, n)
	}
	if opts.MaxSteps < 0 {
		return fmt.Errorf("robust: negative MaxSteps %d", opts.MaxSteps)
	}
	return nil
}
