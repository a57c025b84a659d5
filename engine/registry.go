package engine

import (
	"cmp"
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Engine is one registered simulation family: a Descriptor that makes the
// kind self-describing over the wire (GET /v1/engines) and a factory for
// its typed spec payload.
type Engine interface {
	// Descriptor describes the kind. Descriptors calls it again for every
	// discovery request; Register reads the kind, the default flag and
	// the axes from it once.
	Descriptor() Descriptor
	// NewPayload returns a fresh zero payload for the codec to decode
	// into. It must return a pointer to a struct.
	NewPayload() Payload
}

// entry is one registered family plus its kind, axis set and payload
// type, captured once at Register time so the per-cell batch path never
// rebuilds descriptors and no Spec method allocates a payload to learn its
// type (descriptor enums may be recomputed freely, but the axis set and
// payload type of a kind are static). Decoded specs share kind, the
// registry's own string.
type entry struct {
	engine  Engine
	kind    string
	axes    map[string]bool
	payload reflect.Type
}

var (
	regMu       sync.RWMutex
	registry    = map[string]entry{}
	defaultKind string
)

// Register adds a simulation family under its Descriptor().Kind, panicking
// on duplicates, empty kinds and a second default. It is meant to be called
// from package init functions.
func Register(e Engine) {
	d := e.Descriptor()
	if d.Kind == "" {
		panic("engine: Register with empty descriptor kind")
	}
	// Advertised capabilities must exist: a descriptor that declares batch
	// axes on a payload that cannot apply them would pass AxisOK and then
	// fail every cell at patch time.
	if len(d.Axes) > 0 {
		if _, ok := e.NewPayload().(AxisApplier); !ok {
			panic(fmt.Sprintf("engine: kind %q declares axes %v but its payload does not implement AxisApplier", d.Kind, d.Axes))
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.Kind]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of kind %q", d.Kind))
	}
	if d.Default {
		if defaultKind != "" {
			panic(fmt.Sprintf("engine: kinds %q and %q both claim to be the default", defaultKind, d.Kind))
		}
		defaultKind = d.Kind
	}
	axes := make(map[string]bool, len(d.Axes))
	for _, a := range d.Axes {
		axes[a] = true
	}
	payload := reflect.TypeOf(e.NewPayload())
	registry[d.Kind] = entry{engine: e, kind: d.Kind, axes: axes, payload: payload}
	// Compiled now, so that no request pays for it, with the names the
	// descriptor lists, so that no decode allocates them.
	compilePayload(payload, d.Params)
}

// Lookup resolves a kind name. "" resolves to the default kind (the one
// whose Descriptor sets Default), so omitted spec kinds keep working.
func Lookup(kind string) (Engine, error) {
	e, err := lookup(kind)
	return e.engine, err
}

// lookup is Lookup returning the whole registry entry, for a kind given
// as a string or as its text, which it does not copy.
func lookup[T string | []byte](kind T) (entry, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := entry{}, false
	if len(kind) == 0 {
		e, ok = registry[defaultKind]
	} else {
		e, ok = registry[string(kind)]
	}
	if !ok {
		return entry{}, fmt.Errorf("engine: unknown spec kind %q (known: %v)", cmp.Or(string(kind), defaultKind), kindsLocked())
	}
	return e, nil
}

// DefaultKind returns the kind "" normalizes to ("" if none is registered).
func DefaultKind() string {
	regMu.RLock()
	defer regMu.RUnlock()
	return defaultKind
}

// Kinds returns the registered kinds in sorted order.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return kindsLocked()
}

func kindsLocked() []string {
	out := make([]string, 0, len(registry))
	for kind := range registry {
		out = append(out, kind)
	}
	sort.Strings(out)
	return out
}

// Descriptors returns every registered kind's descriptor, sorted by kind —
// the discovery document GET /v1/engines serves. The order is independent
// of registration order.
func Descriptors() []Descriptor {
	regMu.RLock()
	engines := make([]Engine, 0, len(registry))
	for _, e := range registry {
		engines = append(engines, e.engine)
	}
	regMu.RUnlock()
	out := make([]Descriptor, 0, len(engines))
	for _, e := range engines {
		out = append(out, e.Descriptor())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}
