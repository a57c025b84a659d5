package client

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/service"
)

// TestLocalRoundTrip: a local executor answers the client calls a daemon
// does — submit, stream, batch — and its closer releases the listener and
// the service together with every goroutine they started.
func TestLocalRoundTrip(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c, stop, err := Local(service.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := service.Spec{Seed: 3, Payload: &service.MedianSpec{
		Init: service.InitSpec{Kind: "twovalue", N: 500},
		Rule: service.RuleSpec{Name: "median"},
	}}
	view, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	if err := c.Stream(ctx, view.ID, func(service.RoundRecord) error {
		streamed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	final, err := c.Get(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone || final.Result == nil || streamed != final.Result.Rounds+1 {
		t.Fatalf("run %+v after %d streamed records", final, streamed)
	}
	// The batch's first cell repeats the submitted spec, so the same
	// service answers it from its cache.
	var cells []service.BatchCellRecord
	err = c.Batch(ctx, service.BatchRequest{
		Template: spec,
		Axes:     []service.Axis{{Param: "seed", Values: []float64{3, 4}}},
	}, func(rec service.BatchCellRecord) error {
		cells = append(cells, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || !cells[0].CacheHit || cells[1].Status != service.StatusDone {
		t.Fatalf("batch cells %+v", cells)
	}

	addr := strings.TrimPrefix(c.BaseURL, "http://")
	stop()
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after stop", addr)
	}
	// Workers, the accept loop and both ends' connection goroutines exit;
	// nothing signals their exit, so poll the count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after stop, %d before Local", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
