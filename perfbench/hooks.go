package main

import (
	"time"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/tuner"
)

// launchCap bounds the per-launch series a traced run keeps.
const launchCap = 1 << 20

// Replay repetitions: each replayed layer call is timed over this many
// back-to-back calls and divided, so the clock read does not swamp a
// walk of a few tens of nanoseconds.
const (
	replayReps = 4
	walkReps   = 16
)

// layerTimes is the per-launch trace of a traced run, shared by every
// tracing wrapper of one workload.
type layerTimes struct {
	begin, end, exec       *series // ns
	extract, project, walk *series // ns, replayed
	dwalk                  *series // ns, interpreted reference walk
	mix                    launchMix
}

func newLayerTimes() *layerTimes {
	return &layerTimes{
		begin: newSeries(launchCap), end: newSeries(launchCap), exec: newSeries(launchCap),
		extract: newSeries(launchCap), project: newSeries(launchCap),
		walk: newSeries(launchCap), dwalk: newSeries(launchCap),
	}
}

// traceHooks wraps a tuner for a traced run. It times Begin and End,
// the span between them (policy switcher, body and SimClock), and
// replays each decision through the layers Begin runs: extraction into
// the tuner's schema, Projector.Predict, and the compiled and
// interpreted walks over the vector projected through SourceIndex. The
// replay is excluded from the step time (see takeExcluded); the clock
// reads are not, and show as bench.trace_overhead.
type traceHooks struct {
	tn     *tuner.Tuner
	schema *features.Schema
	ann    *caliper.Annotations
	// projectors returns the set the tuner decides with right now.
	projectors func() *tuner.Projectors
	lt         *layerTimes

	x, v     []float64
	begunAt  time.Time
	excluded time.Duration
}

func newTraceHooks(tn *tuner.Tuner, schema *features.Schema, ann *caliper.Annotations,
	projectors func() *tuner.Projectors, lt *layerTimes) *traceHooks {
	return &traceHooks{
		tn: tn, schema: schema, ann: ann, projectors: projectors, lt: lt,
		x: make([]float64, schema.Len()), v: make([]float64, schema.Len()),
	}
}

func (h *traceHooks) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	t0 := time.Now()
	p, ok := h.tn.Begin(k, iset)
	t1 := time.Now()
	h.lt.begin.add(float64(t1.Sub(t0)))
	h.lt.mix.note(iset)
	h.replay(k, iset)
	h.begunAt = time.Now()
	h.excluded += h.begunAt.Sub(t1)
	return p, ok
}

func (h *traceHooks) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	t0 := time.Now()
	h.lt.exec.add(float64(t0.Sub(h.begunAt)))
	h.tn.End(k, iset, p, elapsedNS)
	h.lt.end.add(float64(time.Since(t0)))
}

// takeExcluded returns and resets the replay time spent since the last
// call, so a step's traced time can leave it out.
func (h *traceHooks) takeExcluded() time.Duration {
	d := h.excluded
	h.excluded = 0
	return d
}

func (h *traceHooks) replay(k *raja.Kernel, iset *raja.IndexSet) {
	t := time.Now()
	for r := 0; r < replayReps; r++ {
		h.schema.ExtractInto(h.x, k, iset, h.ann)
	}
	h.lt.extract.add(float64(time.Since(t)) / replayReps)

	ps := h.projectors()
	if ps == nil {
		return
	}
	var project, walk, dwalk float64
	for _, p := range []*core.Projector{ps.Policy, ps.Chunk} {
		if p == nil {
			continue
		}
		t = time.Now()
		for r := 0; r < replayReps; r++ {
			p.Predict(h.x)
		}
		project += float64(time.Since(t)) / replayReps

		v := h.v[:len(p.SourceIndex())]
		for i, j := range p.SourceIndex() {
			v[i] = 0
			if j >= 0 {
				v[i] = h.x[j]
			}
		}
		if ct := p.Compiled(); ct != nil {
			t = time.Now()
			for r := 0; r < walkReps; r++ {
				ct.Predict(v)
			}
			walk += float64(time.Since(t)) / walkReps
		}
		tree := p.Model().Tree
		t = time.Now()
		for r := 0; r < walkReps; r++ {
			tree.Predict(v)
		}
		dwalk += float64(time.Since(t)) / walkReps
	}
	h.lt.project.add(project)
	h.lt.walk.add(walk)
	h.lt.dwalk.add(dwalk)
}

// launchMix counts the launch properties a decision-layer change may
// depend on.
type launchMix struct {
	launches, small, list int
}

func (m *launchMix) note(iset *raja.IndexSet) {
	m.launches++
	if iset.Len() < 1024 {
		m.small++
	}
	if iset.Type() != raja.RangeIndex {
		m.list++
	}
}

func (m *launchMix) set(r *report, steps int) {
	r.set("launch.per_step", ratio(float64(m.launches), float64(steps)), "count", steps)
	r.set("launch.small_share", ratio(float64(m.small), float64(m.launches)), "ratio", m.launches)
	r.set("launch.list_share", ratio(float64(m.list), float64(m.launches)), "ratio", m.launches)
}

// setLayerTimes reports the launch-path layers of a traced run.
func setLayerTimes(r *report, lt *layerTimes) {
	r.set("tuner.begin_ns.p50", lt.begin.pct(50), "ns", lt.begin.n())
	r.set("tuner.begin_ns.p90", lt.begin.pct(90), "ns", lt.begin.n())
	r.set("tuner.end_ns.p50", lt.end.pct(50), "ns", lt.end.n())
	r.set("tuner.end_ns.p90", lt.end.pct(90), "ns", lt.end.n())
	r.set("raja.exec_ns", lt.exec.pct(50), "ns", lt.exec.n())
	r.set("features.extract_ns", lt.extract.pct(50), "ns", lt.extract.n())
	r.set("core.project_ns", lt.project.pct(50), "ns", lt.project.n())
	r.set("ctree.walk_ns", lt.walk.pct(50), "ns", lt.walk.n())
	r.set("dtree.walk_ns", lt.dwalk.pct(50), "ns", lt.dwalk.n())
	r.set("tuner.begin_to_walk_ratio", ratio(lt.begin.pct(50), lt.walk.pct(50)), "ratio", lt.walk.n())
}
