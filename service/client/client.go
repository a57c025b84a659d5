// Package client is a small typed client for the service HTTP API, shared
// by cmd/consensusctl and usable as a library for programmatic submission.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/engine"
	"repro/obs"
	"repro/service"
)

// The longest NDJSON line, newline included, that Stream and Events
// (maxStreamLine) and Batch (maxBatchLine) accept; a longer one fails
// the call with bufio.ErrTooLong. Their scanners start at bufio's default
// size and grow to the limit only for lines that need it, since a record
// line is usually under 100 bytes.
const (
	maxStreamLine = 1 << 20
	maxBatchLine  = 1 << 22
)

// Client talks to a consensusd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8645".
	BaseURL string
	// Token, when non-empty, is sent as "Authorization: Bearer <Token>"
	// on every request — required by servers started with -auth-token
	// (consensusctl reads it from $CONSENSUS_TOKEN).
	Token string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// New returns a client for the given base URL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError is the decoded {"error": ...} body of a non-2xx response.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Msg)
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// newRequest builds a request against the server, attaching the bearer
// token when configured.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return req, nil
}

func decodeError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &apiError{Status: resp.StatusCode, Msg: msg}
}

// Submit posts a spec and returns the created (or cache-answered) job.
func (c *Client) Submit(ctx context.Context, spec service.Spec) (service.JobView, error) {
	var v service.JobView
	err := c.do(ctx, http.MethodPost, "/v1/runs", spec, &v)
	return v, err
}

// Get fetches a job's current state.
func (c *Client) Get(ctx context.Context, id string) (service.JobView, error) {
	var v service.JobView
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &v)
	return v, err
}

// List fetches all jobs.
func (c *Client) List(ctx context.Context) ([]service.JobView, error) {
	var v struct {
		Runs []service.JobView `json:"runs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &v)
	return v.Runs, err
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobView, error) {
	var v service.JobView
	err := c.do(ctx, http.MethodDelete, "/v1/runs/"+id, nil, &v)
	return v, err
}

// Metrics fetches the service counters.
func (c *Client) Metrics(ctx context.Context) (service.MetricsSnapshot, error) {
	var v service.MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &v)
	return v, err
}

// Health probes /v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Engines fetches the server's engine discovery document: one descriptor
// per registered spec kind, sorted by kind.
func (c *Client) Engines(ctx context.Context) ([]engine.Descriptor, error) {
	var v struct {
		Engines []engine.Descriptor `json:"engines"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/engines", nil, &v)
	return v.Engines, err
}

// Stream follows a job's round-by-round NDJSON stream, invoking fn per
// record until the stream ends (job finished) or fn returns an error.
func (c *Client) Stream(ctx context.Context, id string, fn func(service.RoundRecord) error) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/runs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxStreamLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec service.RoundRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("bad stream line: %w", err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Events follows the server's live event stream (GET /v1/events),
// invoking fn per event until the stream ends (server shutdown), the
// context is cancelled, or fn returns an error. replay > 0 asks the
// server to prepend up to that many recent events from its ring buffer.
// Gaps in Event.Seq mean the client was too slow and events were dropped
// server-side.
func (c *Client) Events(ctx context.Context, replay int, fn func(obs.Event) error) error {
	path := "/v1/events"
	if replay > 0 {
		path += "?replay=" + strconv.Itoa(replay)
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxStreamLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad event line: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Batch submits a BatchRequest and invokes fn for every cell record the
// server streams back, in cell order, until the batch finishes or fn
// returns an error.
func (c *Client) Batch(ctx context.Context, breq service.BatchRequest, fn func(service.BatchCellRecord) error) error {
	buf, err := json.Marshal(breq)
	if err != nil {
		return err
	}
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/batches", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxBatchLine)
	got := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec service.BatchCellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("bad batch stream line: %w", err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		got++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// A server-side abort mid-batch still ends the chunked body cleanly;
	// the announced cell count is the only truncation signal left.
	if want, err := strconv.Atoi(resp.Header.Get("X-Batch-Cells")); err == nil && got != want {
		return fmt.Errorf("batch stream truncated: got %d of %d cells", got, want)
	}
	return nil
}

// Wait polls a job until it reaches a terminal status, then returns its
// final state. poll <= 0 defaults to 100ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (service.JobView, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		v, err := c.Get(ctx, id)
		if err != nil {
			return v, err
		}
		switch v.Status {
		case service.StatusDone, service.StatusFailed, service.StatusCancelled:
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-t.C:
		}
	}
}
