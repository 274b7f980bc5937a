// Package client consumes the Apollo model service from inside an
// application process. It fetches models with conditional GETs (ETag /
// If-None-Match) and installs each fetched version behind an atomic
// pointer — every decision, first sight or not, is one lock-free map
// read plus a tree walk, with no per-vector memo to miss. Crucially for a
// tuner on an application's launch hot path the client also degrades
// gracefully: when the server is unreachable it serves the last fetched
// model, or nothing at all (the tuner then uses its base parameters),
// and retries on an exponential backoff schedule instead of hammering
// the network on every launch.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/core"
)

// ErrNotFound reports that the service has no model under the requested
// name. Callers bootstrapping a model (the continuous trainer publishing
// a first champion) test for it with errors.Is.
var ErrNotFound = errors.New("model not found")

// Cached is one fetched model version held in-process. Immutable.
type Cached struct {
	// Name is the registry name the model was fetched under.
	Name string
	// Version is the registry version.
	Version int
	// ETag is the server's entity tag, replayed in If-None-Match.
	ETag string
	// SchemaHash fingerprints the model's prediction contract.
	SchemaHash string
	// Model is the deserialized model.
	Model *core.Model
	// Lineage is the provenance block from the fetched envelope (nil
	// for hand-published or legacy models); its loop ID lets the client
	// stamp swap events and telemetry batches with the retrain cycle
	// that produced the version it runs.
	Lineage *core.Lineage
}

// Options tunes a client; the zero value picks sensible defaults.
type Options struct {
	// HTTPClient overrides the transport (default: 5s-timeout client).
	HTTPClient *http.Client
	// InitialBackoff is the delay after the first failure (default 100ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential schedule (default 30s).
	MaxBackoff time.Duration
}

// Client talks to one model service.
type Client struct {
	base string
	hc   *http.Client

	initialBackoff time.Duration
	maxBackoff     time.Duration
	nowFn          func() time.Time // injectable for backoff tests
	rand           func() float64   // injectable jitter source in [0,1)

	// models is copy-on-write behind an atomic pointer: Predict reads it
	// on every launch decision, so the read path must not take mu. mu
	// serializes writers (map growth and backoff bookkeeping) only.
	mu     sync.Mutex //apollo:lockrank 10
	models atomic.Pointer[map[string]*modelState]

	fetches atomic.Uint64 // network round trips attempted
}

// modelState tracks one model name's cache and failure backoff.
type modelState struct {
	cur         atomic.Pointer[Cached]
	failures    int
	nextAttempt time.Time
}

// New returns a client for the service at base (e.g. "http://host:8080").
func New(base string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	}
	if opts.InitialBackoff <= 0 {
		opts.InitialBackoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 30 * time.Second
	}
	c := &Client{
		base:           base,
		hc:             opts.HTTPClient,
		initialBackoff: opts.InitialBackoff,
		maxBackoff:     opts.MaxBackoff,
		nowFn:          time.Now,
		rand:           rand.Float64,
	}
	c.models.Store(&map[string]*modelState{})
	return c
}

// Fetches returns how many network round trips the client has attempted
// (successful or not) — backoff keeps this bounded under outages.
func (c *Client) Fetches() uint64 { return c.fetches.Load() }

// state returns (creating if needed) the tracking record for name. The
// read path is one atomic load; a new name copies the map under mu.
func (c *Client) state(name string) *modelState {
	if st, ok := (*c.models.Load())[name]; ok {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.models.Load()
	if st, ok := old[name]; ok {
		return st
	}
	next := make(map[string]*modelState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	st := &modelState{}
	next[name] = st
	c.models.Store(&next)
	return st
}

// Push publishes a model under name and returns its new version.
func (c *Client) Push(name string, m *core.Model) (int, error) {
	return c.PushLineage(name, m, nil)
}

// PushLineage is Push with a provenance block: lin (optional) rides in
// an envelope at version 0 (the service assigns the real version) and
// is persisted into the published artifact.
func (c *Client) PushLineage(name string, m *core.Model, lin *core.Lineage) (int, error) {
	var body []byte
	var err error
	if lin == nil {
		body, err = m.MarshalJSON()
	} else {
		env := core.WrapModel(name, 0, m)
		env.Lineage = lin
		body, err = env.MarshalJSON()
	}
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPut, c.base+"/models/"+name, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.fetches.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //apollo:errok best-effort error-body snippet; the status error is being built regardless
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("client: push %s: %s: %s", name, resp.Status, bytes.TrimSpace(data))
	}
	var out struct {
		Version int `json:"version"`
	}
	if err := unmarshal(data, &out); err != nil {
		return 0, err
	}
	return out.Version, nil
}

// Cached returns the in-process copy of name without touching the
// network, or nil if nothing has been fetched yet.
func (c *Client) Cached(name string) *Cached {
	return c.state(name).cur.Load()
}

// Fetch returns the current model for name, revalidating the in-process
// copy with a conditional GET. Behavior under failure:
//
//   - server answers 304: the cached copy is returned with no decode cost;
//   - network failure with a cached copy: the stale copy is returned
//     (err == nil — a tuner must keep launching) and the failure arms the
//     exponential backoff, so launches inside the backoff window skip the
//     network entirely;
//   - network failure with no cached copy: the error is returned and
//     backoff is armed the same way.
func (c *Client) Fetch(name string) (*Cached, error) {
	st := c.state(name)
	cur := st.cur.Load()

	c.mu.Lock()
	wait := st.nextAttempt.After(c.now())
	c.mu.Unlock()
	if wait {
		if cur != nil {
			return cur, nil
		}
		return nil, fmt.Errorf("client: %s unavailable, in backoff", name)
	}

	req, err := http.NewRequest(http.MethodGet, c.base+"/models/"+name, nil)
	if err != nil {
		return nil, err
	}
	if cur != nil && cur.ETag != "" {
		req.Header.Set("If-None-Match", cur.ETag)
	}
	c.fetches.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail(st)
		if cur != nil {
			return cur, nil
		}
		return nil, fmt.Errorf("client: fetching %s: %w", name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		c.ok(st)
		return cur, nil
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		if err != nil {
			c.fail(st)
			if cur != nil {
				return cur, nil
			}
			return nil, err
		}
		env, err := core.ParseModelOrEnvelope(data)
		if err != nil {
			// The server sent garbage; treat as outage, keep serving.
			c.fail(st)
			if cur != nil {
				return cur, nil
			}
			return nil, err
		}
		version := env.Version
		if v, err := strconv.Atoi(resp.Header.Get("X-Apollo-Model-Version")); err == nil && v > 0 {
			version = v
		}
		next := &Cached{
			Name:       name,
			Version:    version,
			ETag:       resp.Header.Get("ETag"),
			SchemaHash: env.Model.SchemaHash(),
			Model:      env.Model,
			Lineage:    env.Lineage,
		}
		st.cur.Store(next)
		c.ok(st)
		return next, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //apollo:errok best-effort drain so the connection can be reused
		c.fail(st)
		if cur != nil {
			return cur, nil
		}
		return nil, fmt.Errorf("client: fetching %s: %w", name, ErrNotFound)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //apollo:errok best-effort drain so the connection can be reused
		c.fail(st)
		if cur != nil {
			return cur, nil
		}
		return nil, fmt.Errorf("client: fetching %s: %s", name, resp.Status)
	}
}

// now reads the injectable clock (the Service interface's timing hook).
func (c *Client) now() time.Time { return c.nowFn() }

// ok clears the backoff after a successful round trip.
func (c *Client) ok(st *modelState) {
	c.mu.Lock()
	st.failures = 0
	st.nextAttempt = time.Time{}
	c.mu.Unlock()
}

// fail arms the backoff after a failed round trip.
func (c *Client) fail(st *modelState) {
	c.mu.Lock()
	st.nextAttempt = c.now().Add(c.backoff(st.failures))
	if st.failures < 30 {
		st.failures++
	}
	c.mu.Unlock()
}

// backoff returns the delay after the failures-th consecutive failure:
// full-jitter exponential backoff, rand() * min(MaxBackoff,
// InitialBackoff<<failures). Spreading each delay uniformly over the
// exponential window keeps a fleet of clients that all lost the server
// at once from retrying in synchronized waves.
func (c *Client) backoff(failures int) time.Duration {
	d := c.initialBackoff << uint(failures)
	if d > c.maxBackoff || d <= 0 {
		d = c.maxBackoff
	}
	return time.Duration(c.rand() * float64(d))
}

// Predict evaluates the named model on a vector laid out by the model's
// own schema. The decision path never blocks on the network: it uses
// whatever model Fetch last cached, and errors only if no model has ever
// been fetched. Every decision — there is no warm-up and no per-vector
// memo to miss — costs one atomic map load plus the walk of the tree
// installed at fetch time: no locks, no allocation (apollo-vet and the
// zero-alloc guard test both enforce this).
//
//apollo:hotpath
func (c *Client) Predict(name string, x []float64) (int, error) {
	var cur *Cached
	if st, ok := (*c.models.Load())[name]; ok {
		cur = st.cur.Load()
	}
	if cur == nil {
		var err error
		if cur, err = c.predictBootstrap(name); err != nil {
			return 0, err
		}
	}
	if len(x) != cur.Model.Schema.Len() {
		return 0, sizeMismatch(name, len(x), cur.Model.Schema.Len())
	}
	return cur.Model.Predict(x), nil
}

// predictBootstrap resolves the first decision for a model name: fetch
// it (or surface why we cannot). Every later launch hits the atomic
// model cache and never lands here.
//
//apollo:coldpath first decision per model name; steady-state launches read the atomic cache
func (c *Client) predictBootstrap(name string) (*Cached, error) {
	if cur := c.state(name).cur.Load(); cur != nil {
		return cur, nil
	}
	return c.Fetch(name)
}

// sizeMismatch builds the vector-layout error off the hot path.
//
//apollo:coldpath error construction for malformed input vectors
func sizeMismatch(name string, got, want int) error {
	return fmt.Errorf("client: vector has %d features, model %s wants %d", got, name, want)
}

// unmarshal decodes JSON with a context-rich error.
func unmarshal(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("client: decoding %q: %w", bytes.TrimSpace(data), err)
	}
	return nil
}
