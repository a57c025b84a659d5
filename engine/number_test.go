package engine

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestNumberGrammar holds the hand-written number check to encoding/json
// on number-like inputs: numberEnd spans a whole input exactly when
// json.Valid accepts it as a number with nothing around it, and a number
// plainFloat parses decodes as encoding/json decodes it.
func TestNumberGrammar(t *testing.T) {
	for _, in := range []string{
		"0", "-0", "01", "1.", ".5", "1e", "1e+", "-", "+1", " 1", "1.5e300", "1e999",
		"", "1 ", "-01", "00", "-.5", "1.5.5", "0x1", "1_0", "Inf", "NaN", "1e+2", "1E+2",
		"1e-07", "2E-3", "12.50", "0.000027207", "246562.62690723443", "-0.0e-0", "1ee2", "1e2.5", `"1"`,
	} {
		want := json.Valid([]byte(in)) && strings.TrimSpace(in) == in && strings.IndexAny(in[:1], "-0123456789") == 0
		if got := numberEnd([]byte(in), 0) == len(in); got != want {
			t.Errorf("%q: number check %v, json.Valid %v", in, got, want)
		}
		var ref float64
		refErr := json.Unmarshal([]byte(in), &ref)
		if f, ok := plainFloat([]byte(in)); ok && (refErr != nil || f != ref || math.Signbit(f) != math.Signbit(ref)) {
			t.Errorf("%q: plainFloat %v, encoding/json %v, %v", in, f, ref, refErr)
		}
	}
}
