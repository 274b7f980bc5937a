package client

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/tuner"
)

// testModel trains a small policy model. With parallelWins the parallel
// variant is fastest everywhere; otherwise the usual crossover emerges.
func testModel(t testing.TB, parallelWins bool) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 256, 2048, 16384, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			seqNS, ompNS := float64(n)*10, 8000+float64(n)*10/8
			if parallelWins {
				seqNS, ompNS = float64(n)*100, float64(n)
			}
			if pol == raja.SeqExec {
				row[schema.Len()+2] = seqNS
			} else {
				row[schema.Len()+2] = ompNS
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newService(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	ts := httptest.NewServer(server.New(reg).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func TestPushFetchConditionalGet(t *testing.T) {
	ts, _ := newService(t)
	c := New(ts.URL, Options{})
	m := testModel(t, false)
	v, err := c.Push("lulesh/policy", m)
	if err != nil || v != 1 {
		t.Fatalf("push: v=%d err=%v", v, err)
	}

	got, err := c.Fetch("lulesh/policy")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || got.SchemaHash != m.SchemaHash() {
		t.Errorf("fetched %+v", got)
	}
	fetches := c.Fetches()

	// Re-fetch revalidates with If-None-Match: same object back, one more
	// round trip, but no re-decode (304 path returns the cached pointer).
	again, err := c.Fetch("lulesh/policy")
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Error("304 revalidation rebuilt the cached model")
	}
	if c.Fetches() != fetches+1 {
		t.Errorf("fetches = %d, want %d", c.Fetches(), fetches+1)
	}

	// A republish is picked up on the next fetch.
	if _, err := c.Push("lulesh/policy", testModel(t, true)); err != nil {
		t.Fatal(err)
	}
	next, err := c.Fetch("lulesh/policy")
	if err != nil {
		t.Fatal(err)
	}
	if next.Version != 2 || next == again {
		t.Errorf("after republish got version %d (same=%v), want 2, new object", next.Version, next == again)
	}
}

func TestPredictUsesCachedModel(t *testing.T) {
	ts, _ := newService(t)
	c := New(ts.URL, Options{})
	m := testModel(t, false)
	if _, err := c.Push("p", m); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Schema.Len())
	x[m.Schema.Index(features.NumIndices)] = 32
	class, err := c.Predict("p", x)
	if err != nil {
		t.Fatal(err)
	}
	if class != int(raja.SeqExec) {
		t.Errorf("class = %d, want seq", class)
	}
	// The fetch cached the model and every prediction agrees with a
	// walk of the pushed model's tree.
	if cur := c.Cached("p"); cur == nil {
		t.Fatal("fetched model was not cached")
	}
	ni := m.Schema.Index(features.NumIndices)
	for i := 0; i < 64; i++ {
		x[ni] = float64(i * 997)
		got, err := c.Predict("p", x)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Predict(x); got != want {
			t.Fatalf("vector %d: client predict %d, model %d", i, got, want)
		}
	}
	// Wrong-length vectors are rejected.
	if _, err := c.Predict("p", []float64{1}); err == nil {
		t.Error("short vector accepted")
	}
}

// TestDegradesToBaseParamsWhenUnreachable is the acceptance criterion:
// with the service down, a tuner driven through the client source must
// keep launching on base parameters — no panic, no launch failure — and
// the retry traffic must be bounded by the exponential backoff.
func TestDegradesToBaseParamsWhenUnreachable(t *testing.T) {
	c := New("http://127.0.0.1:1", Options{ // nothing listens on port 1
		HTTPClient:     &http.Client{Timeout: 200 * time.Millisecond},
		InitialBackoff: time.Hour,
	})
	c.rand = func() float64 { return 1 } // pin jitter: full 1h window
	schema := features.TableI()
	src := NewSource(c, schema, "lulesh/policy", "")
	if err := src.Refresh(); err == nil {
		t.Fatal("refresh against a dead server reported success")
	}

	base := raja.Params{Policy: raja.OmpParallelForExec, Chunk: 64}
	tn := tuner.NewTuner(schema, caliper.New(), base).UseSource(src)
	k := raja.NewKernel("degraded", nil)
	for i := 0; i < 10; i++ {
		p, ok := tn.Begin(k, raja.NewRange(0, 100))
		if !ok || p != base {
			t.Fatalf("degraded launch %d got %+v, want base %+v", i, p, base)
		}
	}

	// Backoff bounds retries: the failure armed a 1h backoff, so more
	// refreshes must not touch the network again.
	n := c.Fetches()
	for i := 0; i < 20; i++ {
		src.Refresh()
	}
	if c.Fetches() != n {
		t.Errorf("backoff violated: %d extra network attempts", c.Fetches()-n)
	}
	if src.Err() == nil {
		t.Error("backoff refresh lost the error")
	}
}

func TestBackoffExpiresAndRecovers(t *testing.T) {
	ts, _ := newService(t)
	c := New(ts.URL, Options{InitialBackoff: 50 * time.Millisecond})
	c.rand = func() float64 { return 1 } // pin jitter: deterministic windows
	now := time.Now()
	var mu sync.Mutex
	c.nowFn = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	// Unknown model: 404 arms the backoff.
	if _, err := c.Fetch("late/policy"); err == nil {
		t.Fatal("fetch of unpublished model succeeded")
	}
	n := c.Fetches()
	if _, err := c.Fetch("late/policy"); err == nil || c.Fetches() != n {
		t.Fatal("fetch inside backoff window touched the network")
	}

	// The model appears; once the backoff window passes, fetch recovers.
	if _, err := c.Push("late/policy", testModel(t, false)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(time.Second)
	mu.Unlock()
	got, err := c.Fetch("late/policy")
	if err != nil || got == nil {
		t.Fatalf("fetch after backoff expiry failed: %v", err)
	}
}

func TestStaleModelServedDuringOutage(t *testing.T) {
	reg := registry.New()
	ts := httptest.NewServer(server.New(reg).Handler())
	c := New(ts.URL, Options{InitialBackoff: time.Hour})
	if _, err := c.Push("p", testModel(t, false)); err != nil {
		t.Fatal(err)
	}
	before, err := c.Fetch("p")
	if err != nil {
		t.Fatal(err)
	}
	ts.Close() // the service dies
	after, err := c.Fetch("p")
	if err != nil || after != before {
		t.Errorf("outage fetch: got %p err=%v, want cached %p, nil", after, err, before)
	}
	// Decisions keep working off the stale model.
	x := make([]float64, before.Model.Schema.Len())
	if _, err := c.Predict("p", x); err != nil {
		t.Errorf("predict during outage: %v", err)
	}
}

func TestSourceHotSwapsProjectors(t *testing.T) {
	ts, _ := newService(t)
	c := New(ts.URL, Options{})
	schema := features.TableI()
	if _, err := c.Push("app/policy", testModel(t, false)); err != nil {
		t.Fatal(err)
	}
	src := NewSource(c, schema, "app/policy", "")
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	tn := tuner.NewTuner(schema, caliper.New(), raja.Params{Policy: raja.OmpParallelForExec}).UseSource(src)
	k := raja.NewKernel("swap", nil)
	small := raja.NewRange(0, 32)
	if p, _ := tn.Begin(k, small); p.Policy != raja.SeqExec {
		t.Fatalf("v1 model: small launch got %v, want seq", p.Policy)
	}

	// Retrained model: parallel wins everywhere. Push + refresh swaps it
	// into the running tuner.
	if _, err := c.Push("app/policy", testModel(t, true)); err != nil {
		t.Fatal(err)
	}
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	if p, _ := tn.Begin(k, small); p.Policy != raja.OmpParallelForExec {
		t.Fatalf("v2 model: small launch got %v, want omp", p.Policy)
	}
	if src.Swaps() != 2 {
		t.Errorf("swaps = %d, want 2", src.Swaps())
	}

	// An unchanged model must not swap (projector pools stay warm).
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	if src.Swaps() != 2 {
		t.Errorf("no-op refresh swapped: %d", src.Swaps())
	}
}

func TestSourceRejectsWrongParameterModel(t *testing.T) {
	ts, _ := newService(t)
	c := New(ts.URL, Options{})
	if _, err := c.Push("p", testModel(t, false)); err != nil {
		t.Fatal(err)
	}
	src := NewSource(c, features.TableI(), "", "p") // policy model wired as chunk
	if err := src.Refresh(); err == nil {
		t.Error("wrong-parameter model accepted")
	}
	if ps := src.Projectors(); ps.Chunk != nil {
		t.Error("wrong-parameter model installed")
	}
}

func TestSourcePollingPicksUpNewVersion(t *testing.T) {
	ts, _ := newService(t)
	c := New(ts.URL, Options{})
	schema := features.TableI()
	if _, err := c.Push("poll/policy", testModel(t, false)); err != nil {
		t.Fatal(err)
	}
	src := NewSource(c, schema, "poll/policy", "")
	stop := src.StartPolling(5 * time.Millisecond)
	defer stop()

	deadline := time.Now().Add(5 * time.Second)
	for src.Swaps() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if src.Swaps() == 0 {
		t.Fatal("poller never installed v1")
	}
	if _, err := c.Push("poll/policy", testModel(t, true)); err != nil {
		t.Fatal(err)
	}
	for src.Swaps() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if src.Swaps() < 2 {
		t.Fatal("poller never picked up v2")
	}
	stop()
	stop() // idempotent
}

// benchClient stands up a service with one pushed model and a warmed
// client, returning the client and a mutable probe vector.
func benchClient(b *testing.B) (*Client, []float64, int) {
	reg := registry.New()
	ts := httptest.NewServer(server.New(reg).Handler())
	b.Cleanup(ts.Close)
	c := New(ts.URL, Options{})
	m := testModel(b, false)
	if _, err := c.Push("bench/policy", m); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.Schema.Len())
	ni := m.Schema.Index(features.NumIndices)
	x[ni] = 4096
	if _, err := c.Predict("bench/policy", x); err != nil {
		b.Fatal(err)
	}
	return c, x, ni
}

// BenchmarkClientCachedPredict measures a steady-state decision on a
// repeated vector: one atomic map load plus the tree walk — no network,
// no memo.
func BenchmarkClientCachedPredict(b *testing.B) {
	c, x, _ := benchClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		class, err := c.Predict("bench/policy", x)
		if err != nil {
			b.Fatal(err)
		}
		sink += class
	}
	_ = sink
}

// BenchmarkClientCacheMissPredict drives a never-before-seen vector
// through every call — the case that used to pay the memo's map churn,
// and now costs the same tree walk as a repeat (0 allocs).
func BenchmarkClientCacheMissPredict(b *testing.B) {
	c, x, ni := benchClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		x[ni] = float64(i)
		class, err := c.Predict("bench/policy", x)
		if err != nil {
			b.Fatal(err)
		}
		sink += class
	}
	_ = sink
}
