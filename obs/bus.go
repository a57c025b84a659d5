package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one entry of the service's live event stream: a job or store
// lifecycle transition, or a throttled round-progress tick. Events are
// NDJSON lines on GET /v1/events.
type Event struct {
	// Seq is the bus-assigned, strictly increasing sequence number —
	// gaps tell a consumer it was too slow and events were dropped.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Type names the transition: job.submitted, job.coalesced,
	// job.started, job.progress, job.done, job.failed, job.cancelled,
	// batch.started, batch.done, store.appended, store.error.
	Type string `json:"type"`
	// Job is the job id ("r-17") for job.* events.
	Job string `json:"job,omitempty"`
	// Kind is the spec kind of the job.
	Kind string `json:"kind,omitempty"`
	// SpecHash is the job's canonical spec hash.
	SpecHash string `json:"spec_hash,omitempty"`
	// RequestID is the X-Request-Id of the submission that created the
	// job, when it arrived over HTTP.
	RequestID string `json:"request_id,omitempty"`
	// Round is the last executed round (job.progress events).
	Round int `json:"round,omitempty"`
	// Status carries the terminal status or cache-hit marker.
	Status string `json:"status,omitempty"`
	// Elapsed is the seconds spent running (terminal job events).
	Elapsed float64 `json:"elapsed_seconds,omitempty"`
	// Detail is free-form context (error messages, cell counts).
	Detail string `json:"detail,omitempty"`
}

// Bus is a subscribable ring-buffer event bus. Publish never blocks: the
// ring keeps the most recent events for replay to new subscribers, and a
// subscriber that cannot keep up has events dropped (counted per
// subscriber and on the bus-wide dropped counter) rather than slowing the
// publisher.
type Bus struct {
	published *Counter // may be nil
	dropped   *Counter // may be nil

	nsubs atomic.Int32

	mu     sync.Mutex
	ring   []Event // fixed-capacity circular buffer
	next   int     // ring index of the next write
	filled bool
	seq    uint64
	subs   map[*Subscriber]struct{}
	closed bool
}

// NewBus returns a bus whose ring retains the ringCap most recent events
// (ringCap <= 0 defaults to 256). published and dropped, when non-nil,
// count every published event and every per-subscriber drop.
func NewBus(ringCap int, published, dropped *Counter) *Bus {
	if ringCap <= 0 {
		ringCap = 256
	}
	return &Bus{
		published: published,
		dropped:   dropped,
		ring:      make([]Event, ringCap),
		subs:      make(map[*Subscriber]struct{}),
	}
}

// HasSubscribers reports whether anyone is listening — a single atomic
// load, cheap enough to gate event construction on a hot-ish path.
func (b *Bus) HasSubscribers() bool { return b.nsubs.Load() > 0 }

// Subscribers returns the current subscriber count.
func (b *Bus) Subscribers() int { return int(b.nsubs.Load()) }

// Publish assigns the event a sequence number and timestamp (when unset),
// appends it to the ring and fans it out to every subscriber without
// blocking. Publishing on a closed bus is a no-op.
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	ev.Seq = b.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b.ring[b.next] = ev
	b.next++
	if b.next == len(b.ring) {
		b.next, b.filled = 0, true
	}
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			if b.dropped != nil {
				b.dropped.Inc()
			}
		}
	}
	b.mu.Unlock()
	if b.published != nil {
		b.published.Inc()
	}
}

// Subscriber is one bus subscription. Read events from C; the channel is
// closed when the bus closes. Call Close to detach.
type Subscriber struct {
	// C delivers events in publish order (minus drops).
	C       <-chan Event
	ch      chan Event
	bus     *Bus
	dropped atomic.Int64
	once    sync.Once
}

// Dropped returns the number of events this subscriber was too slow to
// receive.
func (s *Subscriber) Dropped() int64 { return s.dropped.Load() }

// Close detaches the subscriber from the bus and closes C, so a consumer
// can drain buffered events with a range loop. Safe to call more than once
// and safe against a concurrent Bus.Close.
func (s *Subscriber) Close() {
	b := s.bus
	b.mu.Lock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		b.nsubs.Add(-1)
	}
	b.mu.Unlock()
	// Closing happens strictly after detaching: publishers only send to
	// subscribers present in b.subs while holding b.mu.
	s.once.Do(func() { close(s.ch) })
}

// Subscribe attaches a subscriber with a delivery buffer of buf events
// (buf <= 0 defaults to 64). replay > 0 preloads up to that many of the
// most recent ring events so a new consumer sees recent history before
// the live stream. The ring cannot replay more than it holds, so replay
// is capped at its capacity first, and the buffer grows to fit the
// capped replay: a caller-supplied replay never sizes an allocation
// beyond the ring's. Returns nil if the bus is closed.
func (b *Bus) Subscribe(buf, replay int) *Subscriber {
	if buf <= 0 {
		buf = 64
	}
	replay = min(replay, len(b.ring))
	buf = max(buf, replay)
	s := &Subscriber{ch: make(chan Event, buf), bus: b}
	s.C = s.ch
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	if replay > 0 {
		for _, ev := range b.tailLocked(replay) {
			s.ch <- ev
		}
	}
	b.subs[s] = struct{}{}
	b.nsubs.Add(1)
	return s
}

// tailLocked returns the n most recent ring events in publish order.
// Callers hold b.mu.
func (b *Bus) tailLocked(n int) []Event {
	size := b.next
	if b.filled {
		size = len(b.ring)
	}
	if n > size {
		n = size
	}
	out := make([]Event, 0, n)
	for i := size - n; i < size; i++ {
		idx := i
		if b.filled {
			idx = (b.next + len(b.ring) - size + i) % len(b.ring)
		}
		out = append(out, b.ring[idx])
	}
	return out
}

// Close closes the bus: every subscriber's channel is closed and further
// publishes are dropped.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	detached := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		detached = append(detached, s)
		delete(b.subs, s)
		b.nsubs.Add(-1)
	}
	b.mu.Unlock()
	for _, s := range detached {
		s.once.Do(func() { close(s.ch) })
	}
}

// reqIDKey is the context key RequestID helpers use.
type reqIDKey struct{}

// reqIDFallback seeds ids when crypto/rand fails (it effectively never
// does; the counter keeps ids unique regardless).
var reqIDFallback atomic.Uint64

// NewRequestID returns a fresh 16-hex-char request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := reqIDFallback.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID returns ctx carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom extracts the request id from ctx ("" when absent).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}
