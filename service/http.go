package service

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/engine"
	"repro/obs"
)

// Handler returns the service's HTTP JSON API:
//
//	POST   /v1/runs             submit a Spec, returns the JobView
//	GET    /v1/runs             list jobs
//	GET    /v1/runs/{id}        job state incl. result when done
//	DELETE /v1/runs/{id}        request cancellation
//	GET    /v1/runs/{id}/stream round-by-round records as NDJSON; follows
//	                            a live run until it finishes
//	POST   /v1/batches          submit a BatchRequest grid; streams one
//	                            BatchCellRecord per cell as NDJSON
//	GET    /v1/engines          discovery: every registered spec kind's
//	                            engine.Descriptor (param schema, batch
//	                            axes), sorted by kind
//	GET    /v1/events           live job/store lifecycle events as NDJSON
//	                            (obs.Event lines); ?replay=N prepends up
//	                            to N recent events from the ring buffer
//	GET    /v1/healthz          liveness probe
//	GET    /v1/metrics          the metric catalogue (JSON by default;
//	                            Prometheus text format when the Accept
//	                            header asks for text/plain or OpenMetrics
//	                            — both render from one registry walk),
//	                            persistent-store counters included when a
//	                            Store is configured (records loaded/
//	                            appended, bytes, compactions)
//
// Every response carries an X-Request-Id header — propagated from the
// request's own X-Request-Id when that is 1 to 128 bytes of
// [A-Za-z0-9._:-], generated otherwise — and the same id is recorded on
// submitted jobs, their events and the structured access log
// (Options.Logger).
//
// Errors are returned as {"error": "..."} with conventional status codes
// (400 invalid spec, 401 missing/bad bearer token on mutating endpoints
// when Options.AuthToken is set, 404 unknown job, 409 cancelling a
// finished job, 413 oversized body, 429 rate-limited submit, 503 full
// queue or closed service). Submit endpoints enforce Options.MaxBodyBytes
// and, when configured, the Options.SubmitRate token bucket.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.requireAuth(s.handleSubmit))
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.requireAuth(s.handleCancel))
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/batches", s.requireAuth(s.handleBatch))
	mux.HandleFunc("GET /v1/engines", handleEngines)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s.instrument(mux)
}

// instrument is the middleware in front of the mux: it assigns or
// propagates the X-Request-Id (echoed on the response and carried in the
// request context for SubmitCtx), captures the response status, observes
// the request in the route/status-labeled latency histogram and writes
// one structured access-log line.
func (s *Service) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if !validRequestID(reqID) {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		// ServeMux.ServeHTTP records the matched pattern on the request
		// itself (Go 1.23+), so the route label is read after dispatch.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.metrics.httpDuration.With(route, statusLabel(status)).ObserveDuration(elapsed)
		// The attributes are built only for a logger that keeps the line:
		// boxing them costs allocations on every request.
		if s.logger.Enabled(r.Context(), slog.LevelInfo) {
			s.logger.Info("http request", "method", r.Method, "route", route,
				"path", r.URL.Path, "status", status,
				"duration_ms", float64(elapsed.Microseconds())/1000, "request_id", reqID)
		}
	})
}

// statusLabels holds the metric label of every status code below 600,
// built once: strconv.Itoa allocates each label of 100 or more.
var statusLabels = func() (labels [600]string) {
	for code := range labels {
		labels[code] = strconv.Itoa(code)
	}
	return labels
}()

// statusLabel is the metric label of a response's status code.
func statusLabel(code int) string {
	if code >= 0 && code < len(statusLabels) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}

// maxRequestID bounds a propagated X-Request-Id. The id is outside input
// that a job keeps, publishes on each of its events and persists with its
// run, so a longer one, or one holding other bytes than
// validRequestID's, is replaced by a generated id.
const maxRequestID = 128

// validRequestID reports whether id may be propagated: 1 to maxRequestID
// bytes of ASCII letters, digits, '.', '_', ':' and '-'.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxRequestID {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the response status for the access log and the
// latency histogram. It passes Flush through so the NDJSON streaming
// endpoints keep flushing per line through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleEngines serves the engine registry's descriptors — the discovery
// document clients use to generate per-kind flags and validate specs
// before submitting — and the spec-codec version this binary speaks, so a
// client can detect a codec bump before submitting under stale keys.
func handleEngines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"engines":      engine.Descriptors(),
		"spec_version": engine.SpecVersion,
	})
}

// requireAuth guards a mutating endpoint with the configured credentials.
// With neither Options.AuthToken nor Options.Quotas set the guard is a
// no-op; otherwise requests must carry "Authorization: Bearer <token>"
// matching AuthToken or one of the quota tokens, or they get 401. A quota
// token's per-token bucket rides the request context into admitSubmit.
// Read-only endpoints stay open either way.
func (s *Service) requireAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.opts.AuthToken == "" && len(s.quotas) == 0 {
			h(w, r)
			return
		}
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if ok && s.opts.AuthToken != "" &&
			subtle.ConstantTimeCompare([]byte(tok), []byte(s.opts.AuthToken)) == 1 {
			h(w, r)
			return
		}
		if ok {
			if b, found := s.lookupQuota(tok); found {
				h(w, r.WithContext(withQuotaBucket(r.Context(), b)))
				return
			}
		}
		w.Header().Set("WWW-Authenticate", `Bearer realm="consensusd"`)
		writeError(w, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
	}
}

// admitSubmit applies the submit-endpoint protections: the token-bucket
// rate limit (429) — the authenticated token's own quota bucket when one
// rode in on the context, the shared limiter otherwise — and the request
// body cap (decode errors become 413). It reports whether the request may
// proceed.
func (s *Service) admitSubmit(w http.ResponseWriter, r *http.Request) bool {
	limiter := s.limiter
	if b, ok := quotaBucketFrom(r.Context()); ok {
		limiter = b
	}
	if !limiter.allow() {
		s.metrics.rateLimited.Add(1)
		// Hint the bucket's actual deficit — after a drained burst the
		// next token can be several periods out — clamped to >= 1s, so
		// compliant clients retrying on schedule can actually succeed.
		retry := 1
		if d := limiter.retryAfter(); d > time.Second {
			retry = int(math.Ceil(d.Seconds()))
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, errors.New("submit rate limit exceeded, retry later"))
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	return true
}

// decodeBody decodes a request body that holds exactly one JSON value
// into v. An unknown field is an error, and so is anything but whitespace
// after the value: a second value would otherwise be dropped unread.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return fmt.Errorf("unexpected data after the JSON value: %w", err)
	}
	return nil
}

// decodeStatus maps a request-decoding error to its HTTP status.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.admitSubmit(w, r) {
		return
	}
	// The body, bounded by admitSubmit, is decoded in one call, trailing
	// data included, without encoding/json's scan of it first.
	buf := getBuffer()
	defer putBuffer(buf)
	body := bytes.NewBuffer(*buf)
	_, err := body.ReadFrom(r.Body)
	var spec Spec
	if *buf = body.Bytes(); err == nil {
		err = spec.UnmarshalJSON(*buf)
	}
	if err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("invalid spec JSON: %w", err))
		return
	}
	view, err := s.SubmitCtx(r.Context(), spec)
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	writeView(w, http.StatusAccepted, &view)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admitSubmit(w, r) {
		return
	}
	var req BatchRequest
	if err := decodeBody(r.Body, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("invalid batch JSON: %w", err))
		return
	}
	cells, err := s.ExpandBatch(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Batch-Cells", strconv.Itoa(len(cells)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Errors mid-stream cannot change the status code any more; dropping
	// the connection (returning) is the only honest signal left.
	_ = s.RunBatch(r.Context(), cells, func(rec BatchCellRecord) error {
		if err := enc.Encode(rec); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// handleMetrics serves both metric representations from the same registry
// walk (obs.Registry.Gather), so the JSON and Prometheus views cannot
// drift apart.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.WriteMetricsText(w)
		return
	}
	writeJSON(w, http.StatusOK, s.MetricsJSON())
}

// handleEvents streams the live event bus as NDJSON: one obs.Event per
// line, flushed per event, until the client disconnects or the service
// closes. ?replay=N prepends up to N buffered events from the ring (at
// most Options.EventBuffer, however large N is) so a follower can catch
// up on recent history. A consumer that cannot keep up has events dropped
// rather than slowing the service; sequence-number gaps reveal the loss.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	replay := 0
	if v := r.URL.Query().Get("replay"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid replay %q", v))
			return
		}
		replay = n
	}
	// The buffer absorbs a burst (a batch's fan-out) while the handler
	// encodes and flushes; the bus drops, and counts, what overflows it.
	sub := s.Events(256, replay)
	if sub == nil {
		writeError(w, http.StatusServiceUnavailable, ErrClosed)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// wantsPrometheus negotiates the metrics representation: JSON stays the
// default (and explicit application/json always wins), while Prometheus
// scrapers — which advertise text/plain or OpenMetrics — get the text
// exposition format.
func wantsPrometheus(accept string) bool {
	if accept == "" || strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.List()})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeView(w, http.StatusOK, &view)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		writeError(w, http.StatusConflict, err)
	default:
		writeView(w, http.StatusOK, &view)
	}
}

func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	// Hold the job itself, not its id: a follower must see the full
	// stream even if the job is evicted from the history mid-stream.
	j, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	buf := getBuffer()
	defer putBuffer(buf)
	next := 0
	for {
		recs, terminal, notify := j.recordsFrom(next)
		// The lines go out in one write, or in one per streamChunk for a
		// long run. A record that does not encode ends the stream after
		// the lines before it, as a failed json.Encoder write would.
		var err error
		for rec := range recs {
			if *buf, err = rec.AppendJSON(*buf); err != nil {
				break
			}
			*buf = append(*buf, '\n')
			next++
			if len(*buf) >= streamChunk && !writeAll(w, buf) {
				return
			}
		}
		// A done job's lines are not flushed: the server then sends them
		// with a Content-Length, in one write, instead of chunked.
		if !writeAll(w, buf) || err != nil || terminal {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// streamChunk is the size from which handleStream writes the lines it
// has encoded before it encodes more.
const streamChunk = 32 << 10

// writeAll writes buf's bytes, if any, and empties it. It reports whether
// the write succeeded.
func writeAll(w io.Writer, buf *[]byte) bool {
	if len(*buf) == 0 {
		return true
	}
	_, err := w.Write(*buf)
	*buf = (*buf)[:0]
	return err == nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
