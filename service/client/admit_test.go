package client

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/engine"
	"repro/service"
)

// countedSpec is a test-only payload that counts its Normalize and
// Validate calls, like engine's own fakeSpec. It is registered here, not
// in package service, whose engine descriptor test pins the built-in
// kinds.
type countedSpec struct {
	N int `json:"n,omitempty"`
}

var countedNormalizes, countedValidates atomic.Int64

func (c *countedSpec) Normalize() { countedNormalizes.Add(1) }

func (c *countedSpec) Validate() error {
	countedValidates.Add(1)
	if c.N <= 0 {
		return fmt.Errorf("counted: n must be positive")
	}
	return nil
}

func (c *countedSpec) MaterializedSize() int64 { return int64(c.N) }

func (c *countedSpec) Run(ctx engine.RunContext) (engine.Result, error) {
	ctx.Observe(engine.Record{N: int64(c.N), Support: 1, LeaderCount: int64(c.N)})
	return engine.Result{Reason: "consensus", WinnerCount: int64(c.N)}, nil
}

type countedEngine struct{}

func (countedEngine) NewPayload() engine.Payload { return &countedSpec{} }

func (countedEngine) Descriptor() engine.Descriptor {
	return engine.Descriptor{
		Kind:    "counted",
		Summary: "test-only payload that counts its admissions",
		Params:  []engine.Param{{Name: "n", Type: "int", Min: engine.Bound(1), Doc: "population"}},
	}
}

func init() { engine.Register(countedEngine{}) }

// TestMissAdmitsOnce: a submitted miss normalizes and validates its
// payload once, at admission; the worker runs the admitted spec as it is.
func TestMissAdmitsOnce(t *testing.T) {
	c, stop, err := Local(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctx := context.Background()
	normalizes, validates := countedNormalizes.Load(), countedValidates.Load()
	v, err := c.Submit(ctx, service.Spec{Kind: "counted", Seed: 3, Payload: &countedSpec{N: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if v, err = c.Wait(ctx, v.ID, time.Millisecond); err != nil || v.Status != service.StatusDone || v.CacheHit {
		t.Fatalf("want a run: %+v, %v", v, err)
	}
	if n, val := countedNormalizes.Load()-normalizes, countedValidates.Load()-validates; n != 1 || val != 1 {
		t.Fatalf("a miss normalized its payload %d times and validated it %d times, want once each", n, val)
	}
}
