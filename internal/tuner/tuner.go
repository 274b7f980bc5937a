// Package tuner provides the two runtime Apollo components the paper
// loads behind RAJA's apollo::begin / apollo::end hooks:
//
//   - Recorder collects a Table I feature vector and the measured runtime
//     of every kernel execution into a training-data frame, while forcing
//     the parameter variant under test (training runs execute the whole
//     problem once per candidate parameter value);
//   - Tuner evaluates trained decision models at every launch and writes
//     the predicted execution parameters to the blackboard for the
//     policy switcher to consume.
//
// Both implement raja.Hooks, so the same application binary runs in either
// recording or tuning mode just by installing a different component —
// the decoupling the paper gets from dynamic loading.
package tuner

import (
	"sync"
	"sync/atomic"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

// Recorder captures one training sample per kernel execution.
type Recorder struct {
	schema *features.Schema
	ann    *caliper.Annotations
	sweep  raja.Params

	mu    sync.Mutex
	frame *dataset.Frame
	row   []float64
}

// NewRecorder returns a recorder that forces every launch to use the
// sweep parameters and records samples against the given schema and
// annotation blackboard.
func NewRecorder(schema *features.Schema, ann *caliper.Annotations, sweep raja.Params) *Recorder {
	return &Recorder{
		schema: schema,
		ann:    ann,
		sweep:  sweep,
		frame:  dataset.NewFrame(core.RecordColumns(schema)...),
		row:    make([]float64, schema.Len()+3),
	}
}

// Begin forces the sweep parameters for the launch.
func (r *Recorder) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	return r.sweep, true
}

// End appends the sample: the feature vector, the parameters used, and
// the elapsed time.
func (r *Recorder) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	x := r.schema.Extract(k, iset, r.ann)
	r.mu.Lock()
	defer r.mu.Unlock()
	copy(r.row, x)
	n := r.schema.Len()
	r.row[n] = float64(p.Policy)
	r.row[n+1] = float64(p.Chunk)
	r.row[n+2] = elapsedNS
	r.frame.AddRow(r.row)
}

// Frame returns the live recording frame. Ownership contract: the frame
// remains owned by the recorder, and End keeps appending to it for as
// long as the application runs — callers that only read it after all
// launches have finished (the offline training pipeline) may use it
// directly, but callers that export while recording may continue (e.g. a
// server shipping training data mid-run) must use Snapshot instead.
func (r *Recorder) Frame() *dataset.Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frame
}

// Snapshot returns a deep copy of the samples recorded so far. The copy
// is safe to read, serialize, or mutate while the recorder keeps
// appending to its live frame on other goroutines.
func (r *Recorder) Snapshot() *dataset.Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frame.Clone()
}

// Samples returns the number of recorded samples.
func (r *Recorder) Samples() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frame.Len()
}

// Projectors is one immutable set of decision projectors: a policy
// projector, a chunk projector, or both (either may be nil, leaving the
// corresponding parameter at the tuner's base value). Sources publish a
// fresh set on every model change and never mutate a published one.
type Projectors struct {
	Policy *core.Projector
	Chunk  *core.Projector
}

// ModelSource supplies the tuner's current projectors. Implementations
// may swap the returned set at any time — a serving client installs a
// retrained model into a running tuner this way — and must make
// Projectors safe for concurrent callers. Returning nil is equivalent to
// returning an empty set: the tuner falls back to its base parameters.
type ModelSource interface {
	Projectors() *Projectors
}

// SwapSource is the trivial ModelSource: an atomically swappable
// projector set. It backs UsePolicyModel/UseChunkModel and is the seam a
// test or an embedding application uses to hot-swap models by hand.
type SwapSource struct {
	ps atomic.Pointer[Projectors]
}

// emptyProjectors backs Projectors() before the first Store, so the
// empty case costs no allocation on the launch path.
var emptyProjectors = &Projectors{}

// Projectors returns the current set (never nil).
//
//apollo:hotpath
func (s *SwapSource) Projectors() *Projectors {
	if ps := s.ps.Load(); ps != nil {
		return ps
	}
	return emptyProjectors
}

// Store atomically publishes a new projector set. Launches already in
// flight finish with the set they loaded; every later launch sees ps.
func (s *SwapSource) Store(ps *Projectors) {
	if ps == nil {
		ps = &Projectors{}
	}
	s.ps.Store(ps)
}

// Tuner evaluates trained models at every kernel launch. A policy model,
// a chunk model, or both may be installed; absent models leave the
// corresponding parameter at its base value. The launch hot path
// (Begin/End) carries //apollo:hotpath annotations, so apollo-vet
// machine-checks what used to be prose here: no allocation, no mutex,
// one atomic load of the projector set — concurrent contexts driving one
// tuner never contend, and a model source may swap in a retrained model
// mid-run with no coordination.
type Tuner struct {
	schema *features.Schema
	ann    *caliper.Annotations
	base   raja.Params

	// scratch pools feature-vector buffers (len == schema.Len()) so
	// Begin extracts without allocating.
	scratch sync.Pool

	own    SwapSource // backs UsePolicyModel / UseChunkModel
	src    atomic.Pointer[sourceBox]
	instMu sync.Mutex // serializes model installs, not launches

	decisions atomic.Uint64

	// telem, when set, receives a sampled (features, params, elapsed)
	// measurement from End — the capture side of the closed training
	// loop. Nil keeps End a two-instruction no-op.
	telem atomic.Pointer[telemetry.Recorder]

	// fl, when set, receives a full decision-provenance record from End
	// (feature snapshot, decision trail, predicted-vs-observed runtime,
	// phase timings). Nil costs one atomic load and a branch.
	fl atomic.Pointer[flight.Recorder]

	// exploreEvery > 0 flips the predicted execution policy on every
	// exploreEvery-th launch, so telemetry contains counterfactual
	// observations (how fast would the other variant have been?) that
	// let the continuous trainer relabel vectors the deployed model
	// gets wrong. 0 disables exploration.
	exploreEvery atomic.Uint64
	exploreSeq   atomic.Uint64
	explored     atomic.Uint64
}

// sourceBox makes the ModelSource interface value atomically swappable.
type sourceBox struct{ s ModelSource }

// NewTuner returns a tuner extracting features against the given schema
// and blackboard, starting from base parameters.
func NewTuner(schema *features.Schema, ann *caliper.Annotations, base raja.Params) *Tuner {
	t := &Tuner{schema: schema, ann: ann, base: base}
	t.scratch.New = func() any {
		v := make([]float64, schema.Len())
		return &v
	}
	t.src.Store(&sourceBox{s: &t.own})
	return t
}

// UsePolicyModel installs a model predicting the execution policy into
// the tuner's own swappable source.
func (t *Tuner) UsePolicyModel(m *core.Model) *Tuner {
	if m.Param != core.ExecutionPolicy {
		panic("tuner: UsePolicyModel with a non-policy model")
	}
	t.instMu.Lock()
	defer t.instMu.Unlock()
	cur := t.own.Projectors()
	t.own.Store(&Projectors{Policy: m.NewProjector(t.schema), Chunk: cur.Chunk})
	return t
}

// UseChunkModel installs a model predicting the OpenMP chunk size into
// the tuner's own swappable source.
func (t *Tuner) UseChunkModel(m *core.Model) *Tuner {
	if m.Param != core.ChunkSize {
		panic("tuner: UseChunkModel with a non-chunk model")
	}
	t.instMu.Lock()
	defer t.instMu.Unlock()
	cur := t.own.Projectors()
	t.own.Store(&Projectors{Policy: cur.Policy, Chunk: m.NewProjector(t.schema)})
	return t
}

// UseSource routes the tuner's projector reads through src — typically a
// serving client that fetches models from a registry and hot-swaps them.
// Passing nil restores the tuner's own UsePolicyModel/UseChunkModel set.
func (t *Tuner) UseSource(src ModelSource) *Tuner {
	if src == nil {
		src = &t.own
	}
	t.src.Store(&sourceBox{s: src})
	return t
}

// Begin extracts the launch's features, evaluates the installed models,
// and returns the predicted parameters. It takes no locks and allocates
// nothing: the scratch vector is pooled, the projector pools its own
// buffers, and the projector set is one atomic pointer load.
//
//apollo:hotpath
func (t *Tuner) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	t.decisions.Add(1)
	xp := t.scratch.Get().(*[]float64)
	defer t.scratch.Put(xp)
	x := t.schema.ExtractInto(*xp, k, iset, t.ann)
	params := t.base
	ps := t.src.Load().s.Projectors()
	if ps == nil {
		return params, true
	}
	if ps.Policy != nil {
		params.Policy = raja.Policy(ps.Policy.Predict(x))
	}
	if ps.Chunk != nil {
		class := ps.Chunk.Predict(x)
		if class >= 0 && class < len(raja.ChunkSizes) {
			params.Chunk = raja.ChunkSizes[class]
		}
	}
	if every := t.exploreEvery.Load(); every > 0 && t.exploreSeq.Add(1)%every == 0 {
		params.Policy = flipPolicy(params.Policy)
		t.explored.Add(1)
	}
	return params, true
}

// flipPolicy returns the other execution policy — the exploration move.
func flipPolicy(p raja.Policy) raja.Policy {
	if p == raja.SeqExec {
		return raja.OmpParallelForExec
	}
	return raja.SeqExec
}

// End feeds the launch measurement to the attached telemetry recorder.
// With no recorder (or on the recorder's unsampled path) it performs a
// couple of atomic operations and allocates nothing — End runs inside
// every kernel launch, so this path must stay effectively free.
//
//apollo:hotpath
func (t *Tuner) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	if rec := t.telem.Load(); rec != nil {
		rec.Record(k, iset, p, elapsedNS)
	}
	if fr := t.fl.Load(); fr != nil {
		t.emitFlight(fr, k, iset, p, elapsedNS)
	}
}

// emitFlight writes one decision-provenance record: it re-extracts the
// launch's features into the reserved record and re-evaluates the
// installed models with trail capture, timing both phases. Re-deriving
// at End (rather than carrying state from Begin) keeps raja.Hooks token-
// free and the disabled cost at a single branch; the replayed decision
// can differ from the one Begin made only if a model was hot-swapped
// mid-launch or the launch was an exploration flip — both of which
// surface as Explored. It allocates nothing.
//
// The trail is the policy model's, then the chunk model's,
// concatenated into one Record.Trail.
//
//apollo:hotpath
func (t *Tuner) emitFlight(fr *flight.Recorder, k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	if !fr.SiteKnown(k.ID) {
		fr.RegisterSite(k.ID, k.Name, nil)
	}
	rec, tok := fr.Reserve(k.ID)
	if rec == nil {
		fr.Commit(tok)
		return
	}
	t0 := flight.Now()
	xp := t.scratch.Get().(*[]float64)
	x := t.schema.ExtractInto(*xp, k, iset, t.ann)
	t1 := flight.Now()
	rec.NumFeatures = int32(copy(rec.Features[:], x))
	predicted := int32(-1)
	chosen := t.base
	trailLen := 0
	if ps := t.src.Load().s.Projectors(); ps != nil {
		if ps.Policy != nil {
			class, steps := ps.Policy.PredictTrail(x, rec.Trail[:])
			trailLen = steps
			predicted = int32(class)
			chosen.Policy = raja.Policy(class)
		}
		if ps.Chunk != nil {
			class, steps := ps.Chunk.PredictTrail(x, rec.Trail[trailLen:])
			trailLen += steps
			if predicted < 0 {
				predicted = int32(class)
			}
			if class >= 0 && class < len(raja.ChunkSizes) {
				chosen.Chunk = raja.ChunkSizes[class]
			}
		}
	}
	t2 := flight.Now()
	t.scratch.Put(xp)
	rec.Iterations = int64(iset.Len())
	rec.Policy = int32(p.Policy)
	rec.Chunk = int32(p.Chunk)
	rec.Predicted = predicted
	rec.TrailLen = int32(trailLen)
	rec.Explored = predicted >= 0 && chosen.Policy != p.Policy
	rec.ObservedNS = elapsedNS
	rec.PredictedNS = fr.PredictObserve(k.ID, int(p.Policy), elapsedNS)
	rec.FeatureNS = float64(t1 - t0)
	rec.ModelNS = float64(t2 - t1)
	fr.Commit(tok)
}

// UseTelemetry attaches (or, with nil, detaches) a telemetry recorder;
// End starts feeding it immediately, with no pause in launches.
func (t *Tuner) UseTelemetry(rec *telemetry.Recorder) *Tuner {
	t.telem.Store(rec)
	return t
}

// UseFlight attaches (or, with nil, detaches) a flight recorder; every
// subsequent launch emits a decision-provenance record from End.
func (t *Tuner) UseFlight(fr *flight.Recorder) *Tuner {
	t.fl.Store(fr)
	return t
}

// Flight returns the attached flight recorder (nil when detached).
func (t *Tuner) Flight() *flight.Recorder { return t.fl.Load() }

// ExploreEvery makes every n-th launch execute the opposite execution
// policy from the model's pick (0 disables). A small exploration rate is
// what gives the telemetry stream observations of both variants per
// feature vector — without it the closed loop could never learn that the
// deployed model's choice has become the slower one.
func (t *Tuner) ExploreEvery(n uint64) *Tuner {
	t.exploreEvery.Store(n)
	return t
}

// Explored returns how many launches ran an exploration variant.
func (t *Tuner) Explored() uint64 { return t.explored.Load() }

// Decisions returns how many launches the tuner has parameterized.
func (t *Tuner) Decisions() uint64 { return t.decisions.Load() }

// KernelStat accumulates the observed cost of one kernel.
type KernelStat struct {
	Name    string
	Count   int
	TotalNS float64
	MinNS   float64
	MaxNS   float64
}

// Collector wraps another Hooks implementation (or none) and accumulates
// per-kernel timing totals, which the harness uses to find each
// application's most time-consuming and most variable kernels.
type Collector struct {
	Inner raja.Hooks

	mu    sync.Mutex
	stats map[string]*KernelStat
}

// NewCollector returns a collector delegating to inner (which may be nil).
func NewCollector(inner raja.Hooks) *Collector {
	return &Collector{Inner: inner, stats: make(map[string]*KernelStat)}
}

// Begin delegates to the inner hooks.
func (c *Collector) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	if c.Inner != nil {
		return c.Inner.Begin(k, iset)
	}
	return raja.Params{}, false
}

// End records the sample and delegates.
func (c *Collector) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	c.mu.Lock()
	st := c.stats[k.Name]
	if st == nil {
		st = &KernelStat{Name: k.Name, MinNS: elapsedNS, MaxNS: elapsedNS}
		c.stats[k.Name] = st
	}
	st.Count++
	st.TotalNS += elapsedNS
	if elapsedNS < st.MinNS {
		st.MinNS = elapsedNS
	}
	if elapsedNS > st.MaxNS {
		st.MaxNS = elapsedNS
	}
	c.mu.Unlock()
	if c.Inner != nil {
		c.Inner.End(k, iset, p, elapsedNS)
	}
}

// Stats returns a snapshot of the per-kernel statistics.
func (c *Collector) Stats() map[string]KernelStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]KernelStat, len(c.stats))
	for name, st := range c.stats {
		out[name] = *st
	}
	return out
}

// TotalNS returns the total observed kernel time.
func (c *Collector) TotalNS() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total float64
	for _, st := range c.stats {
		total += st.TotalNS
	}
	return total
}
