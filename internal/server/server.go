// Package server exposes a model registry over HTTP — the Apollo model
// service daemon's core. The API is plain stdlib net/http + JSON:
//
//	PUT  /models/{name}   publish a model (bare model JSON or envelope)
//	GET  /models/{name}   fetch the current envelope (ETag / If-None-Match)
//	GET  /models          list registered models
//	POST /predict         evaluate a model on one vector or a batch
//	POST /telemetry       ingest sampled launch measurements into the
//	                      per-model spool (enabled by WithTelemetryDir)
//	GET  /healthz         liveness
//	GET  /metrics         Prometheus text: requests, predictions, cache
//	                      hits, model versions, latency histograms
//
// Prediction requests are memoized per (model version, feature vector):
// an application's launches repeat a small set of unique vectors (the
// insight behind the paper's labeling), so the cache absorbs most remote
// prediction traffic.
package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"apollo/internal/flight"
	"apollo/internal/looptrace"
	"apollo/internal/metrics"
	"apollo/internal/registry"
	"apollo/internal/telemetry"
)

// maxModelBytes caps PUT bodies; trained trees are tens of kilobytes.
const maxModelBytes = 16 << 20

// decisionCacheCap bounds the prediction memo cache; on overflow the
// cache resets (vectors repeat heavily, so it refills immediately).
const decisionCacheCap = 8192

// Server wires a registry to HTTP handlers plus a metrics set.
type Server struct {
	reg   *registry.Registry
	met   *metrics.Metrics
	rc    *metrics.RuntimeCollector
	fl    *flight.Recorder
	trace *looptrace.Tracer // nil = loop events off
	mux   *http.ServeMux

	cacheMu sync.RWMutex //apollo:lockrank 20
	// decision memo: ETag + vector bytes -> predicted class.
	decisions map[string]int

	// telemetry ingestion (off when telemetryDir is empty). spoolMu
	// nests outside each Spool's own mutex (CloseSpools seals segments
	// while holding it), hence the lower rank.
	telemetryDir string
	spoolMu      sync.Mutex //apollo:lockrank 21
	spools       map[string]*telemetry.Spool
}

// New returns a server over reg with a fresh metrics set.
func New(reg *registry.Registry, opts ...Option) *Server {
	s := &Server{
		reg:       reg,
		met:       metrics.New(),
		mux:       http.NewServeMux(),
		decisions: make(map[string]int),
		spools:    make(map[string]*telemetry.Spool),
	}
	s.rc = metrics.NewRuntimeCollector(s.met)
	s.fl = flight.New(flight.Options{Shards: 4, ShardCapacity: 256})
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("PUT /models/{name...}", s.instrument("models_put", s.handlePut))
	s.mux.HandleFunc("GET /models/{name...}", s.instrument("models_get", s.handleGet))
	s.mux.HandleFunc("GET /models", s.instrument("models_list", s.handleList))
	s.mux.HandleFunc("GET /models/{$}", s.instrument("models_list", s.handleList))
	s.mux.HandleFunc("POST /predict", s.instrument("predict", s.handlePredict))
	s.mux.HandleFunc("POST /telemetry", s.instrument("telemetry", s.handleTelemetry))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Seed version gauges for models loaded from disk at open.
	for _, name := range reg.Names() {
		if e, ok := reg.Get(name); ok {
			s.met.GaugeSet("apollo_model_version", "model", name,
				"Current registry version of each model.", int64(e.Version))
		}
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics set (the registry watcher's
// reload hook feeds it too).
func (s *Server) Metrics() *metrics.Metrics { return s.met }

// Flight returns the server's always-on flight recorder. Every cache-
// missing /predict evaluation emits a decision record to it; the daemon
// hangs the flight debug endpoints off it via flight.RegisterDebug.
func (s *Server) Flight() *flight.Recorder { return s.fl }

// NoteReload records watcher hot-reloads and refreshes version gauges.
func (s *Server) NoteReload(n int) {
	s.met.CounterAdd("apollo_model_reloads_total", "", "",
		"Models hot-reloaded from disk by the registry watcher.", uint64(n))
	for _, name := range s.reg.Names() {
		if e, ok := s.reg.Get(name); ok {
			s.met.GaugeSet("apollo_model_version", "model", name,
				"Current registry version of each model.", int64(e.Version))
			s.noteLineage(e)
		}
	}
}

// instrument wraps a handler with the request counter and latency
// histogram.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.CounterAdd("apollo_http_requests_total", "handler", name,
			"HTTP requests served, by handler.", 1)
		h(w, r)
		s.met.Observe("apollo_http_request_duration_seconds",
			"HTTP request latency.", time.Since(start).Seconds())
	}
}

// noteWriteError counts a failed response write. By the time a body
// write fails the client has hung up mid-response, so there is nobody
// left to answer; the counter is the error's sink.
func (s *Server) noteWriteError(where string, err error) {
	if err == nil {
		return
	}
	s.met.CounterAdd("apollo_response_write_errors_total", "handler", where,
		"Response bodies that failed to write (client gone mid-response).", 1)
}

// writeJSON encodes v into the response and counts write failures under
// the given handler label.
func (s *Server) writeJSON(w http.ResponseWriter, where string, v any) {
	s.noteWriteError(where, json.NewEncoder(w).Encode(v))
}

// errorJSON writes a JSON error body with the given status.
func (s *Server) errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	s.writeJSON(w, "error", map[string]string{"error": fmt.Sprintf(format, args...)})
}

// modelInfo is the JSON summary of one registry entry, including the
// shape of its decision tree.
type modelInfo struct {
	Name       string `json:"name"`
	Version    int    `json:"version"`
	ETag       string `json:"etag"`
	SchemaHash string `json:"schema_hash"`
	Parameter  string `json:"parameter"`
	Features   int    `json:"features"`
	Nodes      int    `json:"nodes"`
	Leaves     int    `json:"leaves"`
	Depth      int    `json:"depth"`
}

func info(e *registry.Entry) modelInfo {
	t := e.Model.Tree
	return modelInfo{
		Name:       e.Name,
		Version:    e.Version,
		ETag:       e.ETag,
		SchemaHash: e.SchemaHash,
		Parameter:  e.Model.Param.String(),
		Features:   e.Model.Schema.Len(),
		Nodes:      t.NumNodes(),
		Leaves:     t.NumLeaves(),
		Depth:      t.Depth(),
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, err := io.ReadAll(io.LimitReader(r.Body, maxModelBytes+1))
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(data) > maxModelBytes {
		s.errorJSON(w, http.StatusRequestEntityTooLarge, "model exceeds %d bytes", maxModelBytes)
		return
	}
	e, err := s.reg.PublishRaw(name, data)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.CounterAdd("apollo_model_publishes_total", "model", name,
		"Models published via PUT, by model.", 1)
	s.met.GaugeSet("apollo_model_version", "model", name,
		"Current registry version of each model.", int64(e.Version))
	s.noteLineage(e)
	loop, parent := "", 0
	if e.Lineage != nil {
		loop, parent = e.Lineage.LoopID, e.Lineage.ParentVersion
	}
	s.trace.Emit(looptrace.KindPublish, e.Name, loop,
		looptrace.Fields{Version: int32(e.Version), Parent: int32(parent)})
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", e.ETag)
	w.WriteHeader(http.StatusCreated)
	s.writeJSON(w, "models_put", info(e))
}

// noteLineage publishes the provenance info-series for an entry whose
// envelope carried a lineage block: a constant-1 gauge whose labels say
// which loop produced the version and which version it replaced.
func (s *Server) noteLineage(e *registry.Entry) {
	if e.Lineage == nil {
		return
	}
	s.met.GaugeSet("apollo_model_lineage", "model,version,parent,loop",
		fmt.Sprintf("%s,%d,%d,%s", e.Name, e.Version, e.Lineage.ParentVersion, e.Lineage.LoopID),
		"Model provenance info-series: the loop that trained each published version and the parent it replaced.", 1)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		s.errorJSON(w, http.StatusNotFound, "no model %q", name)
		return
	}
	w.Header().Set("ETag", e.ETag)
	w.Header().Set("X-Apollo-Model-Version", strconv.Itoa(e.Version))
	w.Header().Set("X-Apollo-Schema-Hash", e.SchemaHash)
	if match := r.Header.Get("If-None-Match"); match != "" && match == e.ETag {
		s.met.CounterAdd("apollo_model_not_modified_total", "", "",
			"Conditional model fetches answered 304 Not Modified.", 1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, err := w.Write(e.Raw)
	s.noteWriteError("models_get", err)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	out := make([]modelInfo, 0, len(names))
	for _, n := range names {
		if e, ok := s.reg.Get(n); ok {
			out = append(out, info(e))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, "models_list", map[string]any{"models": out})
}

// predictRequest is the POST /predict body. Exactly one of X, Batch, or
// Features must be set. Vectors are laid out by the model's own schema;
// Features names them instead, unset features default to 0.
type predictRequest struct {
	Model    string             `json:"model"`
	X        []float64          `json:"x,omitempty"`
	Batch    [][]float64        `json:"batch,omitempty"`
	Features map[string]float64 `json:"features,omitempty"`
}

// predictResponse answers both single and batched requests.
type predictResponse struct {
	Model   string   `json:"model"`
	Version int      `json:"version"`
	Class   *int     `json:"class,omitempty"`
	Label   string   `json:"label,omitempty"`
	Classes []int    `json:"classes,omitempty"`
	Labels  []string `json:"labels,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxModelBytes)).Decode(&req); err != nil {
		s.errorJSON(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	e, ok := s.reg.Get(req.Model)
	if !ok {
		s.errorJSON(w, http.StatusNotFound, "no model %q", req.Model)
		return
	}
	want := e.Model.Schema.Len()
	vectors := req.Batch
	single := false
	switch {
	case req.X != nil && req.Batch == nil && req.Features == nil:
		vectors, single = [][]float64{req.X}, true
	case req.Features != nil && req.X == nil && req.Batch == nil:
		x := make([]float64, want)
		for name, v := range req.Features {
			i := e.Model.Schema.Index(name)
			if i < 0 {
				s.errorJSON(w, http.StatusBadRequest, "model %q has no feature %q (features: %v)",
					req.Model, name, e.Model.Schema.Names())
				return
			}
			x[i] = v
		}
		vectors, single = [][]float64{x}, true
	case req.Batch != nil && req.X == nil && req.Features == nil:
	default:
		s.errorJSON(w, http.StatusBadRequest, "set exactly one of x, batch, or features")
		return
	}
	for i, x := range vectors {
		if len(x) != want {
			s.errorJSON(w, http.StatusBadRequest, "vector %d has %d features, model %q wants %d",
				i, len(x), req.Model, want)
			return
		}
	}
	resp := predictResponse{Model: e.Name, Version: e.Version}
	if !single && len(vectors) > 1 {
		resp.Classes = s.predictBatch(e, vectors)
	} else {
		for _, x := range vectors {
			resp.Classes = append(resp.Classes, s.predict(e, x))
		}
	}
	resp.Labels = make([]string, len(resp.Classes))
	for i, c := range resp.Classes {
		resp.Labels[i] = e.Model.Param.ClassName(c)
	}
	s.met.CounterAdd("apollo_predictions_total", "", "",
		"Feature vectors evaluated by POST /predict.", uint64(len(vectors)))
	if single {
		resp.Class, resp.Label = &resp.Classes[0], resp.Labels[0]
		resp.Classes, resp.Labels = nil, nil
	}
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, "predict", resp)
}

// predict evaluates one vector through the memo cache. Cache-missing
// evaluations — the ones where the model actually ran — emit a flight
// record carrying the vector, the decision trail, and the evaluation
// time (a cache hit is a repeat of a decision already on record).
func (s *Server) predict(e *registry.Entry, x []float64) int {
	key := decisionKey(e.ETag, x)
	s.cacheMu.RLock()
	class, hit := s.decisions[key]
	s.cacheMu.RUnlock()
	if hit {
		s.met.CounterAdd("apollo_predict_cache_hits_total", "", "",
			"Predictions answered from the decision memo cache.", 1)
		return class
	}
	siteID := siteIDFor(e.Name)
	if !s.fl.SiteKnown(siteID) {
		s.fl.RegisterSite(siteID, e.Name, e.Model.Schema.Names())
	}
	t0 := flight.Now()
	rec, tok := s.fl.Reserve(siteID)
	if rec != nil {
		var steps int
		class, steps = e.Model.Tree.PredictTrail(x, rec.Trail[:])
		rec.TrailLen = int32(steps)
		rec.NumFeatures = int32(copy(rec.Features[:], x))
		rec.Predicted = int32(class)
		rec.Policy = int32(class)
		evalNS := float64(flight.Now() - t0)
		rec.ModelNS = evalNS
		rec.ObservedNS = evalNS
		rec.PredictedNS = s.fl.PredictObserve(siteID, class, evalNS)
	} else {
		class = e.Model.Predict(x)
	}
	s.fl.Commit(tok)
	s.cacheMu.Lock()
	if len(s.decisions) >= decisionCacheCap {
		s.decisions = make(map[string]int)
	}
	s.decisions[key] = class
	s.cacheMu.Unlock()
	return class
}

// predictBatch evaluates a multi-vector request through the memo cache,
// then walks the tree for every memo-missing vector. Batched misses skip
// per-vector flight records (bulk scoring is not an interactive decision
// site); they surface in the batched-predictions counter instead.
func (s *Server) predictBatch(e *registry.Entry, vectors [][]float64) []int {
	classes := make([]int, len(vectors))
	keys := make([]string, len(vectors))
	var missIdx []int
	s.cacheMu.RLock()
	for i, x := range vectors {
		keys[i] = decisionKey(e.ETag, x)
		if class, hit := s.decisions[keys[i]]; hit {
			classes[i] = class
		} else {
			missIdx = append(missIdx, i)
		}
	}
	s.cacheMu.RUnlock()
	if hits := len(vectors) - len(missIdx); hits > 0 {
		s.met.CounterAdd("apollo_predict_cache_hits_total", "", "",
			"Predictions answered from the decision memo cache.", uint64(hits))
	}
	if len(missIdx) == 0 {
		return classes
	}
	for _, i := range missIdx {
		classes[i] = e.Model.Predict(vectors[i])
	}
	s.met.CounterAdd("apollo_predict_batched_total", "", "",
		"Memo-missing vectors evaluated by a batch request.", uint64(len(missIdx)))
	s.cacheMu.Lock()
	if len(s.decisions)+len(missIdx) > decisionCacheCap {
		s.decisions = make(map[string]int)
	}
	for _, i := range missIdx {
		s.decisions[keys[i]] = classes[i]
	}
	s.cacheMu.Unlock()
	return classes
}

// siteIDFor derives the stable flight-recorder site ID for a model name
// (version-independent, so runtime EWMAs survive republishes).
func siteIDFor(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// decisionKey builds the memo key: the entry's content hash plus the
// exact vector bytes.
func decisionKey(etag string, x []float64) string {
	b := make([]byte, 0, len(etag)+len(x)*16)
	b = append(b, etag...)
	for _, v := range x {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '|')
	}
	return string(b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, "healthz", map[string]any{"status": "ok", "models": s.reg.Len()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.rc.Collect() // refresh goroutine/heap/GC-pause self-metrics
	s.collectFlight()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.noteWriteError("metrics", s.met.WritePrometheus(w))
}

// collectFlight snapshots the flight recorder's counters into the
// metrics set on each scrape (the recorder is the source of truth; the
// gauges mirror its monotonic counters, matching how other components'
// counters are exported here).
func (s *Server) collectFlight() {
	s.met.GaugeSet("apollo_flight_emitted_total", "", "",
		"Decision records committed to the flight recorder.", int64(s.fl.Emitted()))
	s.met.GaugeSet("apollo_flight_drops_total", "", "",
		"Flight-recorder reservations dropped on slot collisions.", int64(s.fl.Dropped()))
	for i, used := range s.fl.Occupancy() {
		s.met.GaugeSet("apollo_flight_ring_used", "shard", strconv.Itoa(i),
			"Live records in each flight-recorder ring shard.", int64(used))
	}
}
