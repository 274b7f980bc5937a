package main

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/trainer"
	"apollo/internal/tuner"
)

// Timing wrappers for the loop workload. Each forwards to the deployed
// implementation unchanged and records when and how long each call took.

// timedTransport times every HTTP round trip by route and timestamps the
// ones that failed. A 404 is not a failure: it is how a model that does
// not exist yet answers, before the bootstrap publish.
type timedTransport struct {
	inner http.RoundTripper

	mu             sync.Mutex
	post, get, put *series // ms
	errors         []time.Time
}

func newTimedTransport(inner http.RoundTripper) *timedTransport {
	return &timedTransport{inner: inner, post: newSeries(0), get: newSeries(0), put: newSeries(0)}
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil || resp.StatusCode >= 500 ||
		(resp.StatusCode >= 400 && resp.StatusCode != http.StatusNotFound) {
		t.errors = append(t.errors, t0)
	}
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/telemetry":
		t.post.addDur(d, time.Millisecond)
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/models/"):
		t.get.addDur(d, time.Millisecond)
	case req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/models/"):
		t.put.addDur(d, time.Millisecond)
	}
	return resp, err
}

// errorsBetween counts failed round trips that started in [from, to).
func (t *timedTransport) errorsBetween(from, to time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, at := range t.errors {
		if !at.Before(from) && at.Before(to) {
			n++
		}
	}
	return n
}

// swap is the first launch the tuner decided with a newly installed
// projector set.
type swap struct {
	at      time.Time
	version int // -1 when the set matched no cached model version
	loopID  string
}

// watchSource wraps the tuner's ModelSource and notes, on the launch
// path, the first launch after each projector-set change: one atomic
// load and a pointer compare per call, and a cold path once per swap.
type watchSource struct {
	inner *client.Source
	c     *client.Client
	name  string
	last  atomic.Pointer[tuner.Projectors]

	mu    sync.Mutex
	swaps []swap
}

func (w *watchSource) Projectors() *tuner.Projectors {
	ps := w.inner.Projectors()
	if last := w.last.Load(); ps != last && w.last.CompareAndSwap(last, ps) {
		w.noteSwap(ps)
	}
	return ps
}

// noteSwap records a swap. It allocates and locks, so it stays off the
// launch path behind Projectors' pointer compare: once per model swap.
//
//apollo:coldpath runs once per model swap, not per launch
func (w *watchSource) noteSwap(ps *tuner.Projectors) {
	s := swap{at: time.Now(), version: -1}
	if cached := w.c.Cached(w.name); cached != nil && ps.Policy != nil && ps.Policy.Model() == cached.Model {
		s.version = cached.Version
		if cached.Lineage != nil {
			s.loopID = cached.Lineage.LoopID
		}
	}
	w.mu.Lock()
	w.swaps = append(w.swaps, s)
	w.mu.Unlock()
}

func (w *watchSource) swapList() []swap {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]swap(nil), w.swaps...)
}

// published is one trainer publish seen through timedPublisher.
type published struct {
	start, end time.Time
	version    int
	loopID     string
	lineage    bool
}

// timedPublisher wraps the trainer's Publisher. It implements
// trainer.LineagePublisher like the client publisher it wraps, so the
// trainer keeps stamping lineage through it.
type timedPublisher struct {
	inner trainer.Publisher

	// Per-step call time, read and reset by loopRig.trainStep; only the
	// trainer goroutine calls the publisher.
	stepNS time.Duration

	mu   sync.Mutex
	pubs []published
}

func (p *timedPublisher) Champion(name string) (*core.Model, int, error) {
	t0 := time.Now()
	m, v, err := p.inner.Champion(name)
	p.stepNS += time.Since(t0)
	return m, v, err
}

func (p *timedPublisher) Publish(name string, m *core.Model) (int, error) {
	return p.record(func() (int, error) { return p.inner.Publish(name, m) }, nil)
}

func (p *timedPublisher) PublishLineage(name string, m *core.Model, lin *core.Lineage) (int, error) {
	lp, ok := p.inner.(trainer.LineagePublisher)
	if !ok {
		return p.Publish(name, m)
	}
	return p.record(func() (int, error) { return lp.PublishLineage(name, m, lin) }, lin)
}

func (p *timedPublisher) record(publish func() (int, error), lin *core.Lineage) (int, error) {
	t0 := time.Now()
	v, err := publish()
	t1 := time.Now()
	p.stepNS += t1.Sub(t0)
	if err == nil {
		rec := published{start: t0, end: t1, version: v, lineage: lin != nil}
		if lin != nil {
			rec.loopID = lin.LoopID
		}
		p.mu.Lock()
		p.pubs = append(p.pubs, rec)
		p.mu.Unlock()
	}
	return v, err
}

func (p *timedPublisher) takeStepNS() time.Duration {
	d := p.stepNS
	p.stepNS = 0
	return d
}

func (p *timedPublisher) publishes() []published {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]published(nil), p.pubs...)
}

// poll is one timed Cursor.Poll.
type poll struct {
	at   time.Time
	dur  time.Duration
	rows int
}

// timedCursor wraps the trainer's Cursor. Only the trainer goroutine
// polls; the list is read after it stops.
type timedCursor struct {
	inner trainer.Cursor
	polls []poll
}

func (c *timedCursor) Poll() (*dataset.Frame, error) {
	t0 := time.Now()
	f, err := c.inner.Poll()
	p := poll{at: t0, dur: time.Since(t0)}
	if f != nil {
		p.rows = f.Len()
	}
	c.polls = append(c.polls, p)
	return f, err
}

// rowSourceCursor forwards trainer.RowSourcer, the optional interface the
// trainer asserts for per-source lineage counts.
type rowSourceCursor struct {
	*timedCursor
	rs trainer.RowSourcer
}

func (c rowSourceCursor) SourceRows() map[string]uint64 { return c.rs.SourceRows() }

// wrapCursor returns the timing wrapper and the Cursor to hand the
// trainer: it implements exactly the optional interfaces inner does.
func wrapCursor(inner trainer.Cursor) (*timedCursor, trainer.Cursor) {
	tc := &timedCursor{inner: inner}
	if rs, ok := inner.(trainer.RowSourcer); ok {
		return tc, rowSourceCursor{tc, rs}
	}
	return tc, tc
}
