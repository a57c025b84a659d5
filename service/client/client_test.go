package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/obs"
	"repro/service"
)

// TestLineLimits: every NDJSON reader decodes a line just under its limit
// and fails a line over it with bufio.ErrTooLong.
func TestLineLimits(t *testing.T) {
	readers := []struct {
		name  string
		limit int
		read  func(c *Client) (int, error)
	}{
		{"stream", maxStreamLine, func(c *Client) (int, error) {
			got := 0
			err := c.Stream(context.Background(), "r-1", func(service.RoundRecord) error { got++; return nil })
			return got, err
		}},
		{"events", maxStreamLine, func(c *Client) (int, error) {
			got := 0
			err := c.Events(context.Background(), 0, func(obs.Event) error { got++; return nil })
			return got, err
		}},
		{"batch", maxBatchLine, func(c *Client) (int, error) {
			got := 0
			err := c.Batch(context.Background(), service.BatchRequest{}, func(service.BatchCellRecord) error { got++; return nil })
			return got, err
		}},
	}
	for _, r := range readers {
		for _, tc := range []struct {
			name string
			size int // line length, newline included
			ok   bool
		}{
			{"under", r.limit, true},
			{"over", r.limit + 2, false},
		} {
			t.Run(r.name+"/"+tc.name, func(t *testing.T) {
				// "{   …   }" is a valid JSON object of any length ≥ 2.
				line := "{" + strings.Repeat(" ", tc.size-3) + "}\n"
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
					w.Write([]byte(line))
				}))
				defer srv.Close()
				got, err := r.read(New(srv.URL))
				switch {
				case tc.ok && (err != nil || got != 1):
					t.Fatalf("%d-byte line: %d decoded, err %v", len(line), got, err)
				case !tc.ok && !errors.Is(err, bufio.ErrTooLong):
					t.Fatalf("%d-byte line: err %v, want bufio.ErrTooLong", len(line), err)
				}
			})
		}
	}
}

// TestConcurrentCallsShareNoBuffer: calls running at once on one client
// each decode what the server sent them, although their bodies and lines
// are read into buffers the calls pass to one another through a pool.
func TestConcurrentCallsShareNoBuffer(t *testing.T) {
	s, err := service.New(service.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()

	type run struct {
		view service.JobView
		recs []service.RoundRecord
	}
	stream := func(id string) ([]service.RoundRecord, error) {
		var recs []service.RoundRecord
		err := c.Stream(ctx, id, func(rec service.RoundRecord) error {
			recs = append(recs, rec)
			return nil
		})
		return recs, err
	}
	var runs []run
	for seed := uint64(1); seed <= 4; seed++ {
		v, err := c.Submit(ctx, service.Spec{Seed: seed, Payload: &service.MedianSpec{
			Init: service.InitSpec{Kind: "uniform", N: 500 * int(seed), M: 8},
			Rule: service.RuleSpec{Name: "median"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if v, err = c.Wait(ctx, v.ID, time.Millisecond); err != nil || v.Status != service.StatusDone {
			t.Fatalf("run %d: %+v, %v", seed, v, err)
		}
		recs, err := stream(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{v, recs})
	}

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				want := runs[(g+i)%len(runs)]
				v, err := c.Get(ctx, want.view.ID)
				if err != nil || !reflect.DeepEqual(v, want.view) {
					t.Errorf("get %s: %+v, %v; want %+v", want.view.ID, v, err, want.view)
					return
				}
				recs, err := stream(want.view.ID)
				if err != nil || !reflect.DeepEqual(recs, want.recs) {
					t.Errorf("stream %s: %d records, %v; want %d", want.view.ID, len(recs), err, len(want.recs))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSubmitEncodeError: a spec that cannot be encoded fails Submit before
// any request is sent, with the error json.Marshal returns for it.
func TestSubmitEncodeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("request sent for a spec that cannot be encoded")
	}))
	defer srv.Close()
	spec := service.Spec{Seed: 1, Payload: &service.MedianSpec{
		Init: service.InitSpec{Kind: "twovalue", N: 50},
		Rule: service.RuleSpec{Name: "median", Params: map[string]float64{"p": math.NaN()}},
	}}
	_, err := New(srv.URL).Submit(context.Background(), spec)
	_, want := json.Marshal(spec)
	var merr *json.MarshalerError
	if want == nil || !errors.As(err, &merr) || err.Error() != want.Error() {
		t.Fatalf("Submit error %v, want json.Marshal's %v", err, want)
	}
}
