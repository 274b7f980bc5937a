package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/raja"
	"apollo/internal/registry"
)

// testModel trains a small policy model with the usual seq/omp crossover.
func testModel(t testing.TB) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 256, 2048, 16384, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			if pol == raja.SeqExec {
				row[schema.Len()+2] = float64(n) * 10
			} else {
				row[schema.Len()+2] = 8000 + float64(n)*10/8
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

func newTestServer(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func putModel(t *testing.T, ts *httptest.Server, name string, m *core.Model) modelInfo {
	t.Helper()
	body, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/models/"+name, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %s", resp.Status)
	}
	var mi modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&mi); err != nil {
		t.Fatal(err)
	}
	return mi
}

func TestPutGetRoundTripWithETag(t *testing.T) {
	ts, _ := newTestServer(t)
	m := testModel(t)
	mi := putModel(t, ts, "lulesh/execution_policy", m)
	if mi.Version != 1 || mi.SchemaHash != m.SchemaHash() {
		t.Errorf("publish info wrong: %+v", mi)
	}

	resp, err := http.Get(ts.URL + "/models/lulesh/execution_policy")
	if err != nil {
		t.Fatal(err)
	}
	var env core.Envelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != 1 || env.Name != "lulesh/execution_policy" {
		t.Errorf("envelope = %+v", env)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || resp.Header.Get("X-Apollo-Model-Version") != "1" {
		t.Error("missing ETag / version headers")
	}

	// Conditional GET: unchanged model answers 304 with no body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/models/lulesh/execution_policy", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("conditional GET status %s, want 304", resp2.Status)
	}

	// Republish changes the ETag, so the same conditional GET now hits.
	putModel(t, ts, "lulesh/execution_policy", m)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("stale conditional GET status %s, want 200", resp3.Status)
	}
}

func TestGetUnknownModel404sAndBadPut400s(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/models/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown = %s, want 404", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/models/bad", strings.NewReader("{"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT garbage = %s, want 400", resp2.Status)
	}
}

func TestPredictSingleBatchAndFeatures(t *testing.T) {
	ts, _ := newTestServer(t)
	m := testModel(t)
	putModel(t, ts, "policy", m)
	small := make([]float64, m.Schema.Len())
	small[m.Schema.Index(features.NumIndices)] = 32
	large := make([]float64, m.Schema.Len())
	large[m.Schema.Index(features.NumIndices)] = 131072

	post := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %s", resp.Status)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	vec := func(x []float64) string {
		b, _ := json.Marshal(x)
		return string(b)
	}

	if out := post(fmt.Sprintf(`{"model":"policy","x":%s}`, vec(small))); out["class"].(float64) != float64(raja.SeqExec) {
		t.Errorf("small vector class = %v, want seq", out["class"])
	}
	out := post(fmt.Sprintf(`{"model":"policy","batch":[%s,%s]}`, vec(small), vec(large)))
	classes := out["classes"].([]any)
	if len(classes) != 2 || classes[0].(float64) != float64(raja.SeqExec) || classes[1].(float64) != float64(raja.OmpParallelForExec) {
		t.Errorf("batch classes = %v", classes)
	}
	out = post(`{"model":"policy","features":{"num_indices":131072}}`)
	if out["label"] != raja.OmpParallelForExec.String() {
		t.Errorf("features predict label = %v", out["label"])
	}

	// Malformed requests are rejected cleanly.
	for _, bad := range []string{
		`{"model":"policy"}`,
		`{"model":"policy","x":[1]}`,
		`{"model":"policy","x":[1],"batch":[[1]]}`,
		`{"model":"policy","features":{"warp_size":1}}`,
		`{"model":"missing","x":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("bad request %s accepted", bad)
		}
	}
}

// TestPredictTrailAndTreeStats covers the decision path end to end at
// the server: the model listing reports the tree's shape, a
// cache-missing single predict records the decision trail, and a batch
// request walks memo-missing vectors (batched counter) while agreeing
// with single-vector answers.
func TestPredictTrailAndTreeStats(t *testing.T) {
	reg := registry.New()
	srv := New(reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	m := testModel(t)
	mi := putModel(t, ts, "policy", m)
	if mi.Nodes != m.Tree.NumNodes() || mi.Leaves != m.Tree.NumLeaves() || mi.Depth != m.Tree.Depth() {
		t.Fatalf("publish info tree stats %d/%d/%d, want %d/%d/%d", mi.Nodes, mi.Leaves, mi.Depth,
			m.Tree.NumNodes(), m.Tree.NumLeaves(), m.Tree.Depth())
	}

	post := func(body []byte) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %s", resp.Status)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Cache-missing single predict: the flight record carries the trail
	// the tree walk took, ending at the class the response reported.
	x := make([]float64, m.Schema.Len())
	x[m.Schema.Index(features.NumIndices)] = 131072
	body, _ := json.Marshal(map[string]any{"model": "policy", "x": x})
	out := post(body)
	recs := srv.Flight().Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d flight records, want 1", len(recs))
	}
	rec := recs[0]
	var steps [flight.MaxTrail]dtree.TrailStep
	wantClass, wantSteps := m.Tree.PredictTrail(x, steps[:])
	if int(rec.TrailLen) != wantSteps || wantSteps == 0 {
		t.Fatalf("miss recorded TrailLen=%d, want %d", rec.TrailLen, wantSteps)
	}
	for i := 0; i < wantSteps; i++ {
		if rec.Trail[i] != steps[i] {
			t.Errorf("trail step %d = %+v, want %+v", i, rec.Trail[i], steps[i])
		}
	}
	if int(rec.Predicted) != wantClass {
		t.Errorf("recorded prediction %d, want %d", rec.Predicted, wantClass)
	}
	if got := out["class"].(float64); got != float64(rec.Predicted) {
		t.Errorf("response class %g != recorded prediction %d", got, rec.Predicted)
	}

	// Batch with fresh vectors: walked as memo misses and consistent
	// with single-vector predictions.
	batch := make([][]float64, 6)
	single := make([]float64, len(batch))
	for i := range batch {
		v := make([]float64, m.Schema.Len())
		v[m.Schema.Index(features.NumIndices)] = float64(int(64) << (2 * i))
		batch[i] = v
	}
	body, _ = json.Marshal(map[string]any{"model": "policy", "batch": batch})
	out = post(body)
	classes := out["classes"].([]any)
	if len(classes) != len(batch) {
		t.Fatalf("batch returned %d classes, want %d", len(classes), len(batch))
	}
	for i, v := range batch {
		body, _ = json.Marshal(map[string]any{"model": "policy", "x": v})
		single[i] = post(body)["class"].(float64)
		if classes[i].(float64) != single[i] {
			t.Errorf("vector %d: batch class %v != single class %g", i, classes[i], single[i])
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := parsePrometheus(t, string(raw))
	if got := samples["apollo_predict_batched_total"]; got != float64(len(batch)) {
		t.Errorf("apollo_predict_batched_total = %g, want %d", got, len(batch))
	}

	// The model listing carries the same tree stats as publish.
	resp, err = http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []modelInfo `json:"models"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Models) != 1 {
		t.Fatalf("model listing: %+v (%v)", list.Models, err)
	}
	if list.Models[0] != mi {
		t.Errorf("listing %+v != publish info %+v", list.Models[0], mi)
	}
}

func TestListAndHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	putModel(t, ts, "a/policy", testModel(t))
	putModel(t, ts, "b/policy", testModel(t))
	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []modelInfo `json:"models"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 2 || list.Models[0].Name != "a/policy" {
		t.Errorf("list = %+v", list.Models)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	err = json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if err != nil || health.Status != "ok" || health.Models != 2 {
		t.Errorf("healthz = %+v (%v)", health, err)
	}
}

// parsePrometheus reads the text exposition format into sample name
// (with labels) -> value.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestMetricsEndpointExposesCountersAndHistograms(t *testing.T) {
	ts, _ := newTestServer(t)
	m := testModel(t)
	putModel(t, ts, "policy", m)

	// Two identical predictions: the second must hit the decision cache.
	x := make([]float64, m.Schema.Len())
	x[m.Schema.Index(features.NumIndices)] = 42
	body, _ := json.Marshal(map[string]any{"model": "policy", "x": x})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(strings.Builder)
	if _, err := io.Copy(raw, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	samples := parsePrometheus(t, raw.String())

	checks := map[string]float64{
		`apollo_http_requests_total{handler="models_put"}`: 1,
		`apollo_http_requests_total{handler="predict"}`:    2,
		`apollo_predictions_total`:                         2,
		`apollo_predict_cache_hits_total`:                  1,
		`apollo_model_publishes_total{model="policy"}`:     1,
		`apollo_model_version{model="policy"}`:             1,
	}
	for name, want := range checks {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %g (present=%v), want %g", name, got, ok, want)
		}
	}
	// Histogram invariants: count matches instrumented requests, +Inf
	// bucket is cumulative-total, sum is positive.
	count := samples["apollo_http_request_duration_seconds_count"]
	if count < 3 {
		t.Errorf("histogram count = %g, want >= 3", count)
	}
	if inf := samples[`apollo_http_request_duration_seconds_bucket{le="+Inf"}`]; inf != count {
		t.Errorf("+Inf bucket %g != count %g", inf, count)
	}
	if samples["apollo_http_request_duration_seconds_sum"] <= 0 {
		t.Error("histogram sum not positive")
	}
	// Buckets are monotone non-decreasing in le order.
	var bounds []float64
	for name := range samples {
		if strings.HasPrefix(name, `apollo_http_request_duration_seconds_bucket{le="`) && !strings.Contains(name, "+Inf") {
			b, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(name,
				`apollo_http_request_duration_seconds_bucket{le="`), `"}`), 64)
			if err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	prev := -1.0
	for _, b := range bounds {
		cur := samples[fmt.Sprintf(`apollo_http_request_duration_seconds_bucket{le=%q}`, strconv.FormatFloat(b, 'g', -1, 64))]
		if cur < prev {
			t.Errorf("bucket le=%g count %g below previous %g", b, cur, prev)
		}
		prev = cur
	}
}
