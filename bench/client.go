package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"repro/engine"
	"repro/internal/rng"
	"repro/service"
	"repro/service/client"
)

// benchClient is one closed-loop client: it sends its next op only after
// the previous one completed, over its own keep-alive connection. It
// checks every op's output as it goes.
type benchClient struct {
	h     *harness
	idx   int
	api   *client.Client
	conns *http.Transport
	dials atomic.Int64
	rnd   *rng.Xoshiro256
	fresh map[uint64]bool
	seq   uint64

	// repeats queues the fresh seeds of a batch client's last two ops, and
	// results their result encodings. An op repeats the older group as its
	// cache-hit half. It does not repeat the previous op's: the service
	// marks a job done before it caches the result, so a cell resubmitted
	// the moment its batch ends can miss the cache and run again.
	repeats [][]uint64
	results map[uint64][]byte

	// acked maps a fingerprint of the spec hash of every miss the service
	// acknowledged as done to a fingerprint of its result, for the store
	// check; samples keeps every missSampleEvery-th miss for re-execution.
	acked   map[uint64]uint64
	samples []sample
	misses  int

	stats      phaseStats
	violations []string
}

type sample struct {
	spec   service.Spec
	result service.RunResult
}

// phaseStats is what one client measured in one window.
type phaseStats struct {
	ops, failed int
	latMS       []float64
	records     int // round records streamed (batch: held by the cells)
	cells       int
	timings     []engine.RunTiming // of the misses
	seeds       []uint64           // traced: op seeds for the replays
}

func newBenchClient(h *harness, idx int) *benchClient {
	c := &benchClient{
		h:     h,
		idx:   idx,
		rnd:   stream(h.seed, purposeClient, idx),
		fresh: map[uint64]bool{},
		acked: map[uint64]uint64{},
	}
	dialer := &net.Dialer{}
	c.conns = &http.Transport{
		MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	var rt http.RoundTripper = c.conns
	if h.tr != nil {
		rt = stampRequestID{base: c.conns}
	}
	c.api = client.New(h.srv.URL)
	c.api.HTTPClient = &http.Client{Transport: rt}
	return c
}

// loop runs ops back to back until the deadline.
func (c *benchClient) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.seq++
		op := uint64(c.idx)<<32 | c.seq
		var lat time.Duration
		var err error
		if c.h.w.batch {
			lat, err = c.batch(op)
		} else {
			lat, err = c.single(op)
		}
		c.stats.ops++
		if err != nil {
			c.stats.failed++
			c.violations = append(c.violations, fmt.Sprintf("op %x: %v", op, err))
			continue
		}
		c.stats.latMS = append(c.stats.latMS, ms(lat))
	}
}

// call runs one client call; while tracing, it stamps the call's request
// id and records the call as a span.
func (c *benchClient) call(ctx context.Context, op uint64, name string, fn func(context.Context) error) error {
	tr := c.h.tr
	if !tr.enabled() {
		return fn(ctx)
	}
	ctx = context.WithValue(ctx, requestIDKey{}, requestID(op, name))
	start := time.Now()
	err := fn(ctx)
	tr.span("client."+name, op, "", start, time.Now(), 0)
	return err
}

func (c *benchClient) finishOp(op uint64, start time.Time, seeds ...uint64) time.Duration {
	end := time.Now()
	if tr := c.h.tr; tr.enabled() {
		tr.span("client.op", op, "", start, end, 0)
		if len(c.stats.seeds) < replayCap/clients {
			c.stats.seeds = append(c.stats.seeds, seeds...)
		}
	}
	return end.Sub(start)
}

// single is one submit → stream → get op.
func (c *benchClient) single(op uint64) (time.Duration, error) {
	var seed uint64
	if c.h.w.hit {
		seed = c.h.hitSeeds[c.rnd.Intn(len(c.h.hitSeeds))]
	} else {
		seed = c.freshSeed()
	}
	spec := c.h.w.spec(seed)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	var view, final service.JobView
	records, gap := 0, -1
	start := time.Now()
	err := c.call(ctx, op, "submit", func(ctx context.Context) (err error) {
		view, err = c.api.Submit(ctx, spec)
		return err
	})
	if err == nil {
		err = c.call(ctx, op, "stream", func(ctx context.Context) error {
			return c.api.Stream(ctx, view.ID, func(rec service.RoundRecord) error {
				if rec.Round != records && gap < 0 {
					gap = records
				}
				records++
				return nil
			})
		})
	}
	if err == nil {
		err = c.call(ctx, op, "get", func(ctx context.Context) (err error) {
			final, err = c.api.Get(ctx, view.ID)
			return err
		})
	}
	lat := c.finishOp(op, start, seed)
	if err != nil {
		return lat, err
	}
	return lat, c.checkSingle(seed, spec, view, final, records, gap)
}

func (c *benchClient) checkSingle(seed uint64, spec service.Spec, view, final service.JobView, records, gap int) error {
	hit := c.h.w.hit
	switch {
	case final.Status != service.StatusDone:
		return fmt.Errorf("job %s ended %s: %s", final.ID, final.Status, final.Error)
	case final.Result == nil:
		return fmt.Errorf("job %s is done without a result", final.ID)
	case view.CacheHit != hit || final.CacheHit != hit:
		return fmt.Errorf("job %s: cache_hit %v at submit, %v when done, want %v", final.ID, view.CacheHit, final.CacheHit, hit)
	case gap >= 0:
		return fmt.Errorf("job %s: stream record %d is not round %d", final.ID, gap, gap)
	case records != final.Result.Rounds+1 || final.Records != records:
		return fmt.Errorf("job %s: %d stream records (job reports %d) for %d rounds", final.ID, records, final.Records, final.Result.Rounds)
	}
	enc, err := json.Marshal(final.Result)
	if err != nil {
		return err
	}
	c.stats.records += records
	if !hit {
		return c.acknowledge(spec, final.SpecHash, *final.Result, enc)
	}
	ref, ok := c.h.ref[final.SpecHash]
	switch {
	case !ok || ref.seed != seed:
		return fmt.Errorf("hit job %s: spec hash %s is not the prepped run of seed %d", final.ID, final.SpecHash, seed)
	case !bytes.Equal(enc, ref.result):
		return fmt.Errorf("hit job %s: result differs from the reloaded run", final.ID)
	}
	return nil
}

// batch is one POST /v1/batches op: 8 fresh seeds of an earlier op again,
// which must all be cache hits, then 8 new ones, which must all run.
func (c *benchClient) batch(op uint64) (time.Duration, error) {
	seeds := slices.Clone(c.repeats[0])
	for range batchFresh {
		seeds = append(seeds, c.freshSeed())
	}
	req := batchRequest(c.h.w, seeds)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	var cells []service.BatchCellRecord
	start := time.Now()
	err := c.call(ctx, op, "batch", func(ctx context.Context) error {
		return c.api.Batch(ctx, req, func(rec service.BatchCellRecord) error {
			cells = append(cells, rec)
			return nil
		})
	})
	lat := c.finishOp(op, start, seeds...)
	if err != nil {
		return lat, err
	}
	return lat, c.checkBatch(seeds, cells)
}

func (c *benchClient) checkBatch(seeds []uint64, cells []service.BatchCellRecord) error {
	if len(cells) != len(seeds) {
		return fmt.Errorf("batch streamed %d cells, want %d", len(cells), len(seeds))
	}
	repeat := len(c.repeats[0])
	next := make(map[uint64][]byte, len(seeds)-repeat)
	for i, cell := range cells {
		hit := i < repeat
		switch {
		case cell.Index != i || cell.Spec.Seed != seeds[i]:
			return fmt.Errorf("cell %d is index %d, seed %d; want seed %d", i, cell.Index, cell.Spec.Seed, seeds[i])
		case cell.Status != service.StatusDone || cell.Result == nil:
			return fmt.Errorf("cell %d (job %s) ended %s: %s", i, cell.JobID, cell.Status, cell.Error)
		case cell.CacheHit != hit || cell.Coalesced:
			return fmt.Errorf("cell %d (seed %d): cache_hit %v, coalesced %v; want cache_hit %v", i, seeds[i], cell.CacheHit, cell.Coalesced, hit)
		}
		enc, err := json.Marshal(cell.Result)
		if err != nil {
			return err
		}
		c.stats.records += cell.Result.Rounds + 1
		if hit {
			if !bytes.Equal(enc, c.results[seeds[i]]) {
				return fmt.Errorf("cell %d (seed %d): the cache hit's result differs from the run's", i, seeds[i])
			}
			continue
		}
		next[seeds[i]] = enc
		if err := c.acknowledge(c.h.w.spec(seeds[i]), cell.SpecHash, *cell.Result, enc); err != nil {
			return err
		}
	}
	c.stats.cells += len(cells)
	for _, s := range c.repeats[0] {
		delete(c.results, s)
	}
	maps.Copy(c.results, next)
	c.repeats = append(c.repeats[1:], seeds[repeat:])
	return nil
}

// acknowledge records a miss the service reported done.
func (c *benchClient) acknowledge(spec service.Spec, hash string, res service.RunResult, enc []byte) error {
	if res.Timing == nil {
		return fmt.Errorf("miss %s carries no run timing", hash)
	}
	key := fingerprint([]byte(hash))
	if _, dup := c.acked[key]; dup {
		return fmt.Errorf("miss %s was acknowledged twice", hash)
	}
	c.acked[key] = fingerprint(enc)
	c.stats.timings = append(c.stats.timings, *res.Timing)
	if c.misses%missSampleEvery == 0 {
		c.samples = append(c.samples, sample{spec: spec, result: res})
	}
	c.misses++
	return nil
}

// freshSeed draws a seed this client has not used; the client-index tag
// keeps it apart from other clients' seeds and the prepped ones.
func (c *benchClient) freshSeed() uint64 {
	for {
		if s := taggedSeed(c.rnd, c.idx); !c.fresh[s] {
			c.fresh[s] = true
			return s
		}
	}
}

func fingerprint(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
