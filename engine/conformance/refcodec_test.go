package conformance_test

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/engine"
)

// refSpec is engine.Spec under the codec it had before the one-pass
// codec, kept verbatim (bar package qualifiers) as FuzzSpecCodec's
// differential reference. It sends every encode and decode through a
// map[string]json.RawMessage, which defines the canonical encoding: one
// JSON object holding the payload's members and the envelope fields, keys
// sorted, each key once.
type refSpec engine.Spec

// envelope names the Spec fields that live beside the flattened payload.
var envelopeFields = []string{"kind", "seed", "max_rounds", "v"}

// MarshalJSON flattens the payload's fields into the envelope object. Map
// encoding sorts keys lexicographically, so the output — and therefore the
// canonical encoding Hash is defined over — is deterministic.
func (s refSpec) MarshalJSON() ([]byte, error) {
	fields := map[string]json.RawMessage{}
	if s.Payload != nil {
		buf, err := json.Marshal(s.Payload)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(buf, &fields); err != nil {
			return nil, fmt.Errorf("engine: %s payload is not a JSON object: %w", s.kind(), err)
		}
		for _, key := range envelopeFields {
			if _, clash := fields[key]; clash {
				return nil, fmt.Errorf("engine: %s payload redefines the envelope field %q", s.kind(), key)
			}
		}
	}
	if s.Kind != "" {
		fields["kind"], _ = json.Marshal(s.Kind)
	}
	if s.Seed != 0 {
		fields["seed"], _ = json.Marshal(s.Seed)
	}
	if s.MaxRounds != 0 {
		fields["max_rounds"], _ = json.Marshal(s.MaxRounds)
	}
	if s.V != 0 {
		fields["v"], _ = json.Marshal(s.V)
	}
	return json.Marshal(fields)
}

// UnmarshalJSON splits the envelope fields off and strictly decodes the
// rest into the kind's payload type, resolved through the registry. An
// unknown kind, or a field the kind's payload does not define, is an error
// — a misspelled or foreign-family field is never silently dropped.
func (s *refSpec) UnmarshalJSON(data []byte) error {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return err
	}
	var env struct {
		Kind      string `json:"kind"`
		Seed      uint64 `json:"seed"`
		MaxRounds int    `json:"max_rounds"`
		V         int    `json:"v"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	// An absent "v" (V == 0, the pre-version encoding) is accepted for
	// compatibility with existing clients; any explicit version other than
	// ours is a spec this binary must not reinterpret under its own codec.
	if env.V != 0 && env.V != engine.SpecVersion {
		return fmt.Errorf("%w: spec has v%d, this binary speaks v%d", engine.ErrSpecVersion, env.V, engine.SpecVersion)
	}
	e, err := engine.Lookup(env.Kind)
	if err != nil {
		return err
	}
	for _, key := range envelopeFields {
		delete(fields, key)
	}
	rest, err := json.Marshal(fields)
	if err != nil {
		return err
	}
	p := e.NewPayload()
	if err := strictDecode(rest, p); err != nil {
		return fmt.Errorf("engine: bad %s spec: %w", kindOrDefault(env.Kind), err)
	}
	*s = refSpec{Kind: env.Kind, Seed: env.Seed, MaxRounds: env.MaxRounds, Payload: p, V: env.V}
	return nil
}

func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// kind resolves the family discriminant ("" means the registered default).
func (s refSpec) kind() string { return kindOrDefault(s.Kind) }

func kindOrDefault(kind string) string {
	if kind == "" {
		return engine.DefaultKind()
	}
	return kind
}
