package client

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
