package main

import (
	"fmt"
	"runtime"
	"time"

	"apollo/internal/app"
	"apollo/internal/ares"
	"apollo/internal/caliper"
	"apollo/internal/cleverleaf"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/harness"
	"apollo/internal/lulesh"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/tuner"
)

// Modelled-time noise, as the paper-reproduction harness uses it.
const noiseAmp = 0.08

// A sim is replaced by a fresh one after this many of its steps, outside
// the step timing, so a long run keeps sampling the same early-run
// physics instead of drifting into late-time states no deployment sees.
const restartEvery = 100

// appSpec is one application deployed in a deploy workload.
type appSpec struct {
	desc    app.Descriptor
	problem string
	size    int
}

// deploySpec defines a deploy workload: the paper's deployment of
// reduced models in a bare Tuner, with no telemetry or flight recorder.
type deploySpec struct {
	apps []appSpec
	// chunk also deploys a chunk-size model beside the policy model.
	chunk bool
	// recordSteps is how many steps each training run records.
	recordSteps int
	// checkSteps is the length of the correctness pass (and of the
	// modelled-time comparison behind sim_speedup).
	checkSteps int
	// window is the span of the windows step times are grouped in.
	window time.Duration
}

// deploySmall is the decision-bound case: LULESH at size 8, where most
// launches are small and the decision is a large share of each launch.
func deploySmall() deploySpec {
	return deploySpec{
		apps:        []appSpec{{lulesh.Descriptor(), "sedov", 8}},
		chunk:       true,
		recordSteps: 10,
		checkSteps:  10,
		window:      time.Second,
	}
}

// deployMixed is the body-bound case: all three apps at their largest
// training sizes, one policy model per app, steps taken round-robin.
func deployMixed() deploySpec {
	return deploySpec{
		apps: []appSpec{
			{lulesh.Descriptor(), "sedov", 45},
			{cleverleaf.Descriptor(), "triple_pt", 96},
			{ares.Descriptor(), "hotspot", 64},
		},
		recordSteps: 3,
		checkSteps:  3,
		window:      3 * time.Second,
	}
}

// deployedApp is one app's trained deployment plus its untuned
// reference results.
type deployedApp struct {
	spec          appSpec
	policy, chunk *core.Model
	refCycle      int
	refTime       float64
	refModelledNS float64
}

// deployment is the product of one deploy setup.
type deployment struct {
	spec    deploySpec
	apps    []*deployedApp
	schema  *features.Schema
	machine *platform.Machine
	seed    uint64
}

// setupDeploy records sweep data for every app, labels and trains the
// policy (and chunk) models, reduces them to the top 5 features at depth
// 15, and runs the untuned reference pass.
func setupDeploy(spec deploySpec, seed uint64) (*deployment, error) {
	d := &deployment{spec: spec, schema: features.TableI(), machine: platform.SandyBridgeNode(), seed: seed}
	for _, as := range spec.apps {
		frame := dataset.NewFrame(core.RecordColumns(d.schema)...)
		for _, problem := range as.desc.Problems {
			for _, size := range as.desc.TrainSizes {
				ann := caliper.New()
				rec := harness.NewSweepRecorder(d.schema, ann, d.machine, noiseAmp, seed)
				ctx := raja.NewSimContext(platform.NewSimClock(d.machine, 0, 0), as.desc.DefaultParams)
				ctx.Hooks = rec
				sim, err := as.desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
				if err != nil {
					return nil, err
				}
				for i := 0; i < spec.recordSteps; i++ {
					sim.Step()
				}
				frame.Append(rec.Frame())
			}
		}
		da := &deployedApp{spec: as}
		var err error
		if da.policy, err = trainReduced(frame, d.schema, core.ExecutionPolicy); err != nil {
			return nil, fmt.Errorf("%s policy model: %w", as.desc.Name, err)
		}
		if spec.chunk {
			if da.chunk, err = trainReduced(frame, d.schema, core.ChunkSize); err != nil {
				return nil, fmt.Errorf("%s chunk model: %w", as.desc.Name, err)
			}
		}
		d.apps = append(d.apps, da)
	}
	return d, d.untunedPass()
}

func trainReduced(frame *dataset.Frame, schema *features.Schema, param core.Parameter) (*core.Model, error) {
	set, err := core.Label(frame, schema, param)
	if err != nil {
		return nil, err
	}
	full, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		return nil, err
	}
	return full.Reduce(set, 5, 15, core.TrainConfig{})
}

// newClock returns the modelled clock every deploy run uses, so tuned and
// untuned runs see the same noise stream.
func (d *deployment) newClock() *platform.SimClock {
	return platform.NewSimClock(d.machine, noiseAmp, d.seed+11)
}

// untunedPass runs every app with its static default (no tuner) for
// checkSteps rounds and keeps each app's cycle, simulated time and
// modelled time.
func (d *deployment) untunedPass() error {
	for _, da := range d.apps {
		clk := d.newClock()
		ctx := raja.NewSimContext(clk, da.spec.desc.DefaultParams)
		if da.spec.desc.NewDefaultHooks != nil {
			ctx.Hooks = da.spec.desc.NewDefaultHooks()
		}
		sim, err := da.spec.desc.New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: da.spec.problem, Size: da.spec.size})
		if err != nil {
			return err
		}
		for i := 0; i < d.spec.checkSteps; i++ {
			sim.Step()
		}
		da.refCycle, da.refTime, da.refModelledNS = sim.Cycle(), sim.Time(), clk.NowNS()
	}
	return nil
}

// newTuner installs the app's deployed models in a bare tuner.
func (d *deployment) newTuner(da *deployedApp, ann *caliper.Annotations) *tuner.Tuner {
	tn := tuner.NewTuner(d.schema, ann, da.spec.desc.DefaultParams).UsePolicyModel(da.policy)
	if da.chunk != nil {
		tn.UseChunkModel(da.chunk)
	}
	return tn
}

// replayProjectors returns a projector set equal to the one the tuner
// decides with, for the traced replay.
func (d *deployment) replayProjectors(da *deployedApp) *tuner.Projectors {
	ps := &tuner.Projectors{Policy: da.policy.NewProjector(d.schema)}
	if da.chunk != nil {
		ps.Chunk = da.chunk.NewProjector(d.schema)
	}
	return ps
}

// beginTimer times each Begin call of the tuner it wraps.
type beginTimer struct {
	tn *tuner.Tuner
	ms *windowed
}

func (h *beginTimer) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	t0 := time.Now()
	p, ok := h.tn.Begin(k, iset)
	t1 := time.Now()
	h.ms.add(t1, float64(t1.Sub(t0))/float64(time.Millisecond))
	return p, ok
}

func (h *beginTimer) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	h.tn.End(k, iset, p, elapsedNS)
}

// checkHooks decides each launch with the tuner and compares the result
// with the reference: the interpreted dtree walk of each model over the
// full Table I extraction, indexed by the model's feature names. It
// shares no code with core.Projector or ctree.
type checkHooks struct {
	tn       *tuner.Tuner
	da       *deployedApp
	ann      *caliper.Annotations
	table    *features.Schema
	base     raja.Params
	mix      *launchMix
	failures int
}

func (h *checkHooks) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	p, ok := h.tn.Begin(k, iset)
	h.mix.note(iset)
	if !ok || p != h.reference(k, iset) {
		h.failures++
	}
	return p, ok
}

func (h *checkHooks) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	h.tn.End(k, iset, p, elapsedNS)
}

func (h *checkHooks) reference(k *raja.Kernel, iset *raja.IndexSet) raja.Params {
	full := h.table.Extract(k, iset, h.ann)
	predict := func(m *core.Model) int {
		x := make([]float64, m.Schema.Len())
		for i, name := range m.Schema.Names() {
			if j := h.table.Index(name); j >= 0 {
				x[i] = full[j]
			}
		}
		return m.Tree.Predict(x)
	}
	want := h.base
	want.Policy = raja.Policy(predict(h.da.policy))
	if h.da.chunk != nil {
		if c := predict(h.da.chunk); c >= 0 && c < len(raja.ChunkSizes) {
			want.Chunk = raja.ChunkSizes[c]
		}
	}
	return want
}

// checkResult is the outcome of the untimed correctness pass.
type checkResult struct {
	launches, failures int
	simSpeedup         float64
	mix                *launchMix
}

func (c *checkResult) outcome() outcome {
	return outcome{attempted: c.launches, failed: c.failures, correct: c.failures == 0}
}

// check runs checkSteps tuned rounds through checkHooks and compares each
// tuned app's cycle and simulated time with the untuned run's. It runs
// before the timed run, so the modelled times behind sim_speedup see the
// same launch history on every run with the same seed.
func (d *deployment) check() (*checkResult, error) {
	res := &checkResult{mix: &launchMix{}}
	table := features.TableI()
	var defNS, tunedNS float64
	for _, da := range d.apps {
		ann := caliper.New()
		clk := d.newClock()
		ctx := raja.NewSimContext(clk, da.spec.desc.DefaultParams)
		h := &checkHooks{tn: d.newTuner(da, ann), da: da, ann: ann, table: table,
			base: da.spec.desc.DefaultParams, mix: res.mix}
		ctx.Hooks = h
		sim, err := da.spec.desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: da.spec.problem, Size: da.spec.size})
		if err != nil {
			return nil, err
		}
		for i := 0; i < d.spec.checkSteps; i++ {
			sim.Step()
		}
		res.failures += h.failures
		if sim.Cycle() != da.refCycle || sim.Time() != da.refTime {
			res.failures++
		}
		defNS += da.refModelledNS
		tunedNS += clk.NowNS()
	}
	res.launches = res.mix.launches
	res.simSpeedup = ratio(defNS, tunedNS)
	return res, nil
}

// deployRun is one deploy app instance in a timed phase.
type deployRun struct {
	da    *deployedApp
	ctx   *raja.Context
	ann   *caliper.Annotations
	tn    *tuner.Tuner
	trace *traceHooks
	sim   app.Sim
	steps int
}

// phase selects what a timed phase installs behind each app.
type phase struct {
	// untuned runs each app's static default instead of the tuner.
	untuned bool
	// decide opens every window with a decision slice.
	decide bool
	// lt, when set, traces every launch into it.
	lt *layerTimes
}

func (d *deployment) newRuns(ph phase) ([]*deployRun, error) {
	runs := make([]*deployRun, len(d.apps))
	for i, da := range d.apps {
		r := &deployRun{da: da, ann: caliper.New()}
		r.ctx = raja.NewSimContext(d.newClock(), da.spec.desc.DefaultParams)
		switch {
		case ph.untuned:
			if da.spec.desc.NewDefaultHooks != nil {
				r.ctx.Hooks = da.spec.desc.NewDefaultHooks()
			}
		case ph.lt != nil:
			r.tn = d.newTuner(da, r.ann)
			ps := d.replayProjectors(da)
			r.trace = newTraceHooks(r.tn, d.schema, r.ann, func() *tuner.Projectors { return ps }, ph.lt)
			r.ctx.Hooks = r.trace
		default:
			r.tn = d.newTuner(da, r.ann)
			r.ctx.Hooks = r.tn
		}
		if err := r.restart(); err != nil {
			return nil, err
		}
		runs[i] = r
	}
	return runs, nil
}

func (r *deployRun) restart() error {
	sim, err := r.da.spec.desc.New(app.Config{Ctx: r.ctx, Ann: r.ann, Problem: r.da.spec.problem, Size: r.da.spec.size})
	r.sim, r.steps = sim, 0
	return err
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	steps    int
	p50      float64 // step-time p50 (windowed.slow), µs; traced: replay excluded
	p90      float64 // step-time p90 over every round, µs
	begins   int
	beginP50 float64 // Begin latency p50 (windowed.slow) over the decision slices, ms
	sumUS    float64
	allocs   uint64
	heapMB   float64 // live heap at the end, with the apps still live
}

// A phase that measures decisions opens a decision slice every
// decideEvery: rounds for at least decideSlice with Begin calls timed one
// by one. Those rounds are not step samples.
const (
	decideEvery = time.Second
	decideSlice = 50 * time.Millisecond
)

// timedPhase runs rounds back to back on one goroutine until the
// deadline. A round is one step of every app. With ph.decide set, it
// also runs the decision slices, each tuner behind a beginTimer.
func (d *deployment) timedPhase(dur time.Duration, ph phase) (*phaseResult, error) {
	runs, err := d.newRuns(ph)
	if err != nil {
		return nil, err
	}
	res := &phaseResult{}
	stepUS, beginMS := newWindowed(d.spec.window), newWindowed(decideEvery)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(dur)
	var sliced time.Time
	for time.Now().Before(deadline) {
		if ph.decide && time.Since(sliced) >= decideEvery {
			sliced = time.Now()
			beginMS.split()
			for _, r := range runs {
				r.ctx.Hooks = &beginTimer{tn: r.tn, ms: beginMS}
			}
			for end := time.Now().Add(decideSlice); time.Now().Before(end); {
				if err := restartDue(runs); err != nil {
					return nil, err
				}
				stepAll(runs)
			}
			for _, r := range runs {
				r.ctx.Hooks = r.tn
			}
		}
		if err := restartDue(runs); err != nil {
			return nil, err
		}
		t0 := time.Now()
		stepAll(runs)
		now := time.Now()
		el := now.Sub(t0)
		for _, r := range runs {
			if r.trace != nil {
				el -= r.trace.takeExcluded()
			}
		}
		stepUS.add(now, float64(el)/float64(time.Microsecond))
	}
	runtime.ReadMemStats(&ms1)
	res.allocs = ms1.Mallocs - ms0.Mallocs
	res.steps, res.sumUS = stepUS.all.n(), stepUS.all.sum()
	res.p50, res.p90 = stepUS.slow(50), stepUS.all.pct(90)
	res.begins, res.beginP50 = beginMS.all.n(), beginMS.slow(50)
	// The samples are no longer referenced: the heap is the apps'.
	res.heapMB = liveHeapMB()
	runtime.KeepAlive(runs)
	return res, nil
}

// restartDue replaces each sim that has run restartEvery steps.
func restartDue(runs []*deployRun) error {
	for _, r := range runs {
		if r.steps == restartEvery {
			if err := r.restart(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepAll steps every app once.
func stepAll(runs []*deployRun) {
	for _, r := range runs {
		r.sim.Step()
		r.steps++
	}
}

// runDeploy runs one deploy workload and fills the report.
func runDeploy(spec deploySpec, o options, rep *report) (outcome, error) {
	if !o.trace {
		var setups []float64
		var d *deployment
		var err error
		for i := 0; i < setupRepeats; i++ {
			t0 := time.Now()
			if d, err = setupDeploy(spec, o.seed); err != nil {
				return outcome{}, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		rep.set("setup_s", percentile(setups, 50), "s", len(setups))
		chk, err := d.check()
		if err != nil {
			return outcome{}, err
		}
		ph, err := d.timedPhase(o.duration(), phase{decide: true})
		if err != nil {
			return outcome{}, err
		}
		rep.set("step_us_p50", ph.p50, "us", ph.steps)
		rep.set("step_us_p90", ph.p90, "us", ph.steps)
		rep.set("sim_speedup", chk.simSpeedup, "x", chk.launches)
		// A deployed model adapts to each launch's input at the launch
		// itself: adaptation is the Begin call.
		rep.set("adapt_ms_p50", ph.beginP50, "ms", ph.begins)
		rep.set("heap_live_mb", ph.heapMB, "MB", 1)
		return chk.outcome(), nil
	}

	d, err := setupDeploy(spec, o.seed)
	if err != nil {
		return outcome{}, err
	}
	chk, err := d.check()
	if err != nil {
		return outcome{}, err
	}
	untuned, err := d.timedPhase(o.duration()/4, phase{untuned: true})
	if err != nil {
		return outcome{}, err
	}
	plain, err := d.timedPhase(o.duration()/4, phase{})
	if err != nil {
		return outcome{}, err
	}
	lt := newLayerTimes()
	traced, err := d.timedPhase(o.duration()/2, phase{lt: lt})
	if err != nil {
		return outcome{}, err
	}
	setLayerTimes(rep, lt)
	chk.mix.set(rep, d.spec.checkSteps)
	rep.set("step.allocs", ratio(float64(plain.allocs), float64(plain.steps)), "count", plain.steps)
	rep.set("tuner.begin_share", ratio(lt.begin.sum()/1e3, traced.sumUS), "ratio", traced.steps)
	rep.set("tuner.overhead_ratio", ratio(plain.p50, untuned.p50)-1, "ratio", untuned.steps)
	rep.set("raja.untuned_step_us", untuned.p50, "us", untuned.steps)
	rep.set("step_us_p90", plain.p90, "us", plain.steps)
	rep.set("bench.trace_overhead", ratio(traced.p50, plain.p50), "ratio", traced.steps)
	rep.set("error_rate", ratio(float64(chk.failures), float64(chk.launches)), "ratio", chk.launches)
	return chk.outcome(), nil
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
