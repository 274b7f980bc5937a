package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/client"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/looptrace"
	"apollo/internal/lulesh"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/telemetry"
	"apollo/internal/trainer"
	"apollo/internal/tuner"
)

// The loop workload's deployment. The tuner side runs apollo-tune's
// shipped defaults (sample every launch, explore every 8th, poll and
// flush every 500ms); the trainer steps on a fixed cadence.
const (
	loopModel        = "lulesh/execution_policy"
	loopSampleEvery  = 1
	loopExploreEvery = 8
	loopPoll         = 500 * time.Millisecond
	loopFlush        = 500 * time.Millisecond
	loopTrainEvery   = 250 * time.Millisecond
	loopJournalEvery = time.Second
	// loopStepEvery paces the app: a LULESH step is due every 20ms
	// whatever the decision cost, so decision speed does not set the
	// telemetry rate (69 launches, so 3450 rows, a second). At 10ms the
	// app, server and trainer kept the 2-vCPU host near saturation, and
	// the step times followed the host's speed rather than the program.
	loopStepEvery = 20 * time.Millisecond
	// loopCycle is the regime period: every cycle the input size and the
	// simulated machine change, so the champion goes stale.
	loopCycle = 2 * time.Second
	// loopServeTimeout bounds the wait for the bootstrap champion.
	loopServeTimeout = 60 * time.Second
	// Noise of the app's modelled clock, as apollo-tune's -noise default.
	loopNoise = 0.05
)

// regime is one input/machine combination of the loop workload.
type regime struct {
	size    int
	machine *platform.Machine
}

// loopRegimes returns the regime of the setup phase followed by one per
// cycle. Every switch changes the input size, cycling 8, 12, 16, and the
// simulated machine, alternating Sandy Bridge and KNL; the seed picks
// which machine comes first. The size order is fixed so that every seed
// runs the same mix of sizes, a third each over whole rotations, so the
// step-time median falls in the middle size's steps.
func loopRegimes(seed uint64, cycles int) []regime {
	machines := []*platform.Machine{platform.SandyBridgeNode(), platform.KNLNode()}
	sizes := []int{16, 8, 12}
	out := make([]regime, cycles+1)
	for i := range out {
		out[i] = regime{size: sizes[i%3], machine: machines[(int(seed%2)+i)%2]}
	}
	return out
}

// cycleRec is what the app goroutine records at each regime switch.
type cycleRec struct {
	switchAt           time.Time // when the cycle's first step was due
	end                time.Time
	dropped, discarded uint64 // telemetry ring drops and uploader discards by the switch
	reg                regime
	steps              int
	modelledNS         float64
}

// trainStep is one timed trainer.Step.
type trainStep struct {
	start, end time.Time
	pollEnd    time.Time
	selfNS     time.Duration // Step minus its Poll, Champion and Publish calls
	res        *trainer.Result
	err        error
}

// loopRig is one running observed deployment in one process.
type loopRig struct {
	o       options
	dir     string
	schema  *features.Schema
	regimes []regime

	hs    *http.Server
	ln    net.Listener
	srv   *server.Server
	rt    *timedTransport
	c     *client.Client
	src   *client.Source
	watch *watchSource
	rec   *telemetry.Recorder
	up    *client.Uploader
	fr    *flight.Recorder
	tn    *tuner.Tuner
	ann   *caliper.Annotations
	lt    *layerTimes
	tr    *trainer.Trainer
	cur   *timedCursor
	pub   *timedPublisher

	tracers     []*looptrace.Tracer
	traceCancel context.CancelFunc
	traceDone   []<-chan struct{}

	stop  chan struct{}
	start chan struct{} // starts the timed schedule
	wg    sync.WaitGroup

	// Set by the app goroutine before it closes scheduled.
	scheduled chan struct{}
	t0, tEnd  time.Time

	// Written by the app goroutine, read after it stops.
	cycles   []cycleRec
	stepUS   *series // from due, µs
	execUS   *series // from start, µs
	late     *series // ms
	stepSize []int   // size of each timed step, for the overhead ratio
	appErr   error

	// Written by the ticker goroutines, read after they stop.
	flushes   *series // ms
	refreshes *series // ms
	noops     int
	steps     []trainStep
}

// startLoop builds a deployment in dir and starts every actor. The app
// runs the setup regime until the timed schedule starts.
func startLoop(o options, dir string, lt *layerTimes, cycles int) (*loopRig, error) {
	r := &loopRig{
		o: o, dir: dir, schema: features.TableI(), regimes: loopRegimes(o.seed, cycles), lt: lt,
		stop: make(chan struct{}), start: make(chan struct{}, 1), scheduled: make(chan struct{}),
		stepUS: newSeries(0), execUS: newSeries(0), late: newSeries(0),
		flushes: newSeries(0), refreshes: newSeries(0),
	}
	if err := r.startService(); err != nil {
		return nil, errors.Join(err, r.close())
	}
	if err := r.startActors(); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

func (r *loopRig) startService() error {
	reg, err := registry.Open(filepath.Join(r.dir, "models"))
	if err != nil {
		return err
	}
	serveTrace, err := r.newTracer("serve")
	if err != nil {
		return err
	}
	r.srv = server.New(reg, server.WithTelemetryDir(filepath.Join(r.dir, "spool")), server.WithLoopTrace(serveTrace))
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	r.hs = &http.Server{Handler: r.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.hs.Serve(r.ln) //apollo:errok Serve returns ErrServerClosed on close
	}()
	return nil
}

// newTracer opens an actor's loop journal in the run directory.
func (r *loopRig) newTracer(actor string) (*looptrace.Tracer, error) {
	tr := looptrace.New(actor, looptrace.Options{})
	if err := tr.OpenJournal(filepath.Join(r.dir, "journal")); err != nil {
		return nil, err
	}
	r.tracers = append(r.tracers, tr)
	return tr, nil
}

func (r *loopRig) startActors() error {
	base := "http://" + r.ln.Addr().String()
	// At most two connections to the service, shared by every client.
	r.rt = newTimedTransport(&http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2})
	hc := &http.Client{Transport: r.rt, Timeout: 5 * time.Second}
	tuneTrace, err := r.newTracer("tune")
	if err != nil {
		return err
	}
	trainTrace, err := r.newTracer("traind")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.traceCancel = cancel
	for _, tr := range r.tracers {
		r.traceDone = append(r.traceDone, tr.Start(ctx, loopJournalEvery))
	}

	// The application process, wired as apollo-tune wires it.
	r.c = client.New(base, client.Options{HTTPClient: hc})
	r.src = client.NewSource(r.c, r.schema, loopModel, "")
	r.src.SetTrace(tuneTrace)
	r.watch = &watchSource{inner: r.src, c: r.c, name: loopModel}
	r.ann = caliper.New()
	r.rec = telemetry.NewRecorder(r.schema, r.ann, telemetry.Options{SampleEvery: loopSampleEvery})
	r.up = client.NewUploader(r.c, loopModel, r.rec, client.UploaderOptions{
		Attribution: func() (int, string) {
			cached := r.c.Cached(loopModel)
			if cached == nil {
				return 0, ""
			}
			loop := ""
			if cached.Lineage != nil {
				loop = cached.Lineage.LoopID
			}
			return cached.Version, loop
		},
	})
	r.fr = flight.New(flight.Options{FeatureNames: r.schema.Names()})
	r.tn = tuner.NewTuner(r.schema, r.ann, lulesh.Descriptor().DefaultParams).
		UseSource(r.watch).
		UseTelemetry(r.rec).
		UseFlight(r.fr).
		ExploreEvery(loopExploreEvery)

	// The continuous trainer tails the spool the service writes.
	r.pub = &timedPublisher{inner: trainer.NewClientPublisher(client.New(base, client.Options{HTTPClient: hc}))}
	var cur trainer.Cursor
	r.cur, cur = wrapCursor(telemetry.NewCursor(filepath.Join(r.dir, "spool", filepath.FromSlash(loopModel))))
	r.tr, err = trainer.New(cur, r.pub, trainer.Config{
		Name: loopModel, Schema: r.schema, Seed: r.o.seed, ID: "perfbench", Trace: trainTrace,
	})
	if err != nil {
		return err
	}

	r.every(loopFlush, func() {
		t0 := time.Now()
		r.up.Flush() //apollo:errok a failed flush requeues its batch; its round trip is counted by the transport
		r.flushes.addDur(time.Since(t0), time.Millisecond)
	})
	r.every(loopPoll, func() {
		swaps := r.src.Swaps()
		t0 := time.Now()
		r.src.Refresh() //apollo:errok a failed refresh keeps the current model; its round trip is counted by the transport
		r.refreshes.addDur(time.Since(t0), time.Millisecond)
		if r.src.Swaps() == swaps {
			r.noops++
		}
	})
	r.every(loopTrainEvery, r.trainStep)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.appErr = r.runApp()
	}()
	return nil
}

// every calls fn on a ticker until the rig stops.
func (r *loopRig) every(d time.Duration, fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

func (r *loopRig) trainStep() {
	st := trainStep{start: time.Now()}
	polls := len(r.cur.polls)
	st.res, st.err = r.tr.Step()
	st.end = time.Now()
	st.selfNS = st.end.Sub(st.start) - r.pub.takeStepNS()
	for _, p := range r.cur.polls[polls:] {
		st.selfNS -= p.dur
		st.pollEnd = p.at.Add(p.dur)
	}
	r.steps = append(r.steps, st)
}

// appRun is the app's current regime instance.
type appRun struct {
	reg   regime
	clk   *platform.SimClock
	sim   app.Sim
	trace *traceHooks
}

// newAppRun starts a LULESH run in reg. Only the timed schedule's runs
// are traced.
func (r *loopRig) newAppRun(reg regime, seed uint64, traced bool) (*appRun, error) {
	a := &appRun{reg: reg, clk: platform.NewSimClock(reg.machine, loopNoise, seed)}
	ctx := raja.NewSimContext(a.clk, lulesh.Descriptor().DefaultParams)
	ctx.Hooks = r.tn
	if traced && r.lt != nil {
		a.trace = newTraceHooks(r.tn, r.schema, r.ann, r.src.Projectors, r.lt)
		ctx.Hooks = a.trace
	}
	sim, err := lulesh.Descriptor().New(app.Config{Ctx: ctx, Ann: r.ann, Problem: "sedov", Size: reg.size})
	a.sim = sim
	return a, err
}

// runApp steps LULESH on its due schedule: first in the setup regime
// until start is signalled, then one cycle per regime.
func (r *loopRig) runApp() error {
	defer close(r.scheduled)
	cur, err := r.newAppRun(r.regimes[0], r.o.seed, false)
	if err != nil {
		return err
	}
	due := time.Now()
	for {
		select {
		case <-r.stop:
			return nil
		case <-r.start:
			r.t0 = time.Now()
			r.tEnd = r.t0.Add(time.Duration(len(r.regimes)-1) * loopCycle)
			return r.runSchedule(r.t0)
		default:
		}
		if !r.sleepUntil(due) {
			return nil
		}
		cur.sim.Step()
		due = due.Add(loopStepEvery)
		if now := time.Now(); due.Before(now) {
			due = now
		}
	}
}

func (r *loopRig) sleepUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-r.stop:
		return false
	case <-tm.C:
		return true
	}
}

func (r *loopRig) runSchedule(t0 time.Time) error {
	var cur *appRun
	n := len(r.regimes) - 1
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * loopStepEvery)
		if d := time.Until(due); d > 0 {
			tm := time.NewTimer(d)
			select {
			case <-r.stop:
				tm.Stop()
				return nil
			case <-tm.C:
			}
		}
		// A switch happens when the first step of the next cycle is due;
		// it is stamped when the app makes it.
		if c := int(due.Sub(t0) / loopCycle); c >= len(r.cycles) {
			now := time.Now()
			if cur != nil {
				r.closeCycle(cur, now)
			}
			if c >= n {
				return nil
			}
			next, err := r.newAppRun(r.regimes[c+1], r.o.seed+uint64(c+1), true)
			if err != nil {
				return err
			}
			cur = next
			r.cycles = append(r.cycles, cycleRec{
				switchAt: now, reg: cur.reg, dropped: r.rec.Dropped(), discarded: r.up.Discarded(),
			})
		}
		begin := time.Now()
		cur.sim.Step()
		end := time.Now()
		if cur.trace != nil {
			end = end.Add(-cur.trace.takeExcluded())
		}
		r.late.addDur(begin.Sub(due), time.Millisecond)
		r.stepUS.addDur(end.Sub(due), time.Microsecond)
		r.execUS.addDur(end.Sub(begin), time.Microsecond)
		r.stepSize = append(r.stepSize, cur.reg.size)
		r.cycles[len(r.cycles)-1].steps++
	}
}

func (r *loopRig) closeCycle(a *appRun, end time.Time) {
	c := &r.cycles[len(r.cycles)-1]
	c.end = end
	c.modelledNS = a.clk.NowNS()
}

// waitServing waits for the first launch decided by a published model.
func (r *loopRig) waitServing() error {
	deadline := time.NewTimer(loopServeTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, s := range r.watch.swapList() {
			if s.version > 0 {
				return nil
			}
		}
		select {
		case <-r.stop:
			return errors.New("stopped before a model served")
		case <-deadline.C:
			return fmt.Errorf("no model served within %v", loopServeTimeout)
		case <-tick.C:
		}
	}
}

// runTimed starts the regime schedule and waits for it to finish.
func (r *loopRig) runTimed() (t0, end time.Time, err error) {
	r.start <- struct{}{}
	select {
	case <-r.scheduled:
	case <-r.stop:
		return t0, end, errors.New("stopped during the timed schedule")
	}
	if r.appErr != nil {
		return t0, end, r.appErr
	}
	return r.t0, r.tEnd, nil
}

// close stops every actor, waits for each, and shuts the service down.
func (r *loopRig) close() error {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	var errs []error
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, r.hs.Shutdown(ctx))
		cancel()
	}
	r.wg.Wait()
	if r.traceCancel != nil {
		r.traceCancel()
		for _, d := range r.traceDone {
			<-d //apollo:ctxok joins a journal flusher whose context was just cancelled
		}
	}
	for _, tr := range r.tracers {
		errs = append(errs, tr.Close())
	}
	if r.srv != nil {
		errs = append(errs, r.srv.CloseSpools())
	}
	if r.rt != nil {
		r.rt.inner.(*http.Transport).CloseIdleConnections()
	}
	errs = append(errs, r.appErr)
	return errors.Join(errs...)
}

// trainErrorsBetween counts trainer steps that failed and started in
// [from, to).
func (r *loopRig) trainErrorsBetween(from, to time.Time) int {
	n := 0
	for _, st := range r.steps {
		if st.err != nil && !st.start.Before(from) && st.start.Before(to) {
			n++
		}
	}
	return n
}

// spoolBytes sums the telemetry spool's segment sizes.
func (r *loopRig) spoolBytes() int64 {
	var n int64
	filepath.WalkDir(filepath.Join(r.dir, "spool"), func(_ string, d fs.DirEntry, err error) error { //apollo:errok a missing spool sums to 0
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// setupLoop starts a rig and waits until the bootstrap champion serves.
func setupLoop(o options, dir string, lt *layerTimes, cycles int) (*loopRig, time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	r, err := startLoop(o, dir, lt, cycles)
	if err != nil {
		return nil, 0, err
	}
	if err := r.waitServing(); err != nil {
		return nil, 0, errors.Join(err, r.close())
	}
	return r, time.Since(t0), nil
}

// loopCycles is how many regime cycles fit the measured time.
func loopCycles(d time.Duration) int {
	n := int(d / loopCycle)
	if n < 1 {
		n = 1
	}
	return n
}

func runLoop(o options, rep *report) (outcome, error) {
	if !o.trace {
		var setups []float64
		var r *loopRig
		for i := 0; i < setupRepeats; i++ {
			rig, took, err := setupLoop(o, filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i)), nil, loopCycles(o.duration()))
			if err != nil {
				return outcome{}, err
			}
			setups = append(setups, took.Seconds())
			if i < setupRepeats-1 {
				if err := rig.close(); err != nil {
					return outcome{}, err
				}
				continue
			}
			r = rig
		}
		rep.set("setup_s", percentile(setups, 50), "s", len(setups))
		t0, end, err := r.runTimed()
		if err := errors.Join(err, r.close()); err != nil {
			return outcome{}, err
		}
		// Every actor has stopped: the live heap is the state the
		// deployment keeps, not whatever a poll had in flight.
		heap := liveHeapMB()
		runtime.KeepAlive(r)
		a, err := r.analyze(t0, end)
		if err != nil {
			return outcome{}, err
		}
		rep.set("step_us_p50", r.stepUS.pct(50), "us", r.stepUS.n())
		rep.set("step_us_p90", r.stepUS.pct(90), "us", r.stepUS.n())
		rep.set("sim_speedup", a.simSpeedup, "x", r.stepUS.n())
		rep.set("adapt_ms_p50", a.adaptMS.pct(50), "ms", a.adaptMS.n())
		rep.set("heap_live_mb", heap, "MB", 1)
		return a.outcome, nil
	}

	// Traced run: an untraced half and a traced half, each on a fresh
	// deployment, so bench.trace_overhead compares like with like.
	half := o.duration() / 2
	plain, _, err := setupLoop(o, filepath.Join(o.workDir, "plain"), nil, loopCycles(half))
	if err != nil {
		return outcome{}, err
	}
	if _, _, err := plain.runTimed(); err != nil {
		return outcome{}, errors.Join(err, plain.close())
	}
	if err := plain.close(); err != nil {
		return outcome{}, err
	}
	lt := newLayerTimes()
	r, _, err := setupLoop(o, filepath.Join(o.workDir, "traced"), lt, loopCycles(half))
	if err != nil {
		return outcome{}, err
	}
	rec0, drop0 := r.rec.Seen(), r.rec.Dropped()
	fl0, fld0 := r.fr.Emitted(), r.fr.Dropped()
	retrains0, pubs0 := r.tr.Retrains(), r.tr.Publishes()
	steps0 := len(r.steps)
	t0, end, err := r.runTimed()
	if err != nil {
		return outcome{}, errors.Join(err, r.close())
	}
	seen, dropped := r.rec.Seen()-rec0, r.rec.Dropped()-drop0
	emitted, fdropped := r.fr.Emitted()-fl0, r.fr.Dropped()-fld0
	retrains, pubs := r.tr.Retrains()-retrains0, r.tr.Publishes()-pubs0
	if err := r.close(); err != nil {
		return outcome{}, err
	}
	a, err := r.analyze(t0, end)
	if err != nil {
		return outcome{}, err
	}

	setLayerTimes(rep, lt)
	lt.mix.set(rep, r.stepUS.n())
	rep.set("tuner.begin_share", ratio(lt.begin.sum()/1e3, r.execUS.sum()), "ratio", r.execUS.n())
	rep.set("tuner.overhead_ratio", a.overhead, "ratio", r.execUS.n())
	rep.set("raja.untuned_step_us", a.untunedUS, "us", a.untunedN)
	rep.set("bench.trace_overhead", ratio(r.stepUS.pct(50), plain.stepUS.pct(50)), "ratio", r.stepUS.n())
	rep.set("step_us_p90", plain.stepUS.pct(90), "us", plain.stepUS.n())
	rep.set("app.lateness_ms_p90", r.late.pct(90), "ms", r.late.n())

	rep.set("telemetry.drop_ratio", ratio(float64(dropped), float64(seen)), "ratio", int(seen))
	rep.set("flight.drop_ratio", ratio(float64(fdropped), float64(emitted+fdropped)), "ratio", int(emitted+fdropped))
	first, last, rows := newSeries(0), newSeries(0), 0
	quarter := end.Sub(t0) / 4
	for _, p := range r.cur.polls {
		if p.at.Before(t0) {
			continue
		}
		rows += p.rows
		switch {
		case p.at.Before(t0.Add(quarter)):
			first.addDur(p.dur, time.Millisecond)
		case !p.at.Before(end.Add(-quarter)):
			last.addDur(p.dur, time.Millisecond)
		}
	}
	rep.set("telemetry.poll_ms.first", first.pct(50), "ms", first.n())
	rep.set("telemetry.poll_ms.last", last.pct(50), "ms", last.n())
	rep.set("telemetry.poll_rows", float64(rows), "count", len(r.cur.polls))
	rep.set("telemetry.spool_bytes", float64(r.spoolBytes()), "bytes", 1)

	rep.set("client.flush_ms", r.flushes.pct(50), "ms", r.flushes.n())
	rep.set("client.refresh_ms", r.refreshes.pct(50), "ms", r.refreshes.n())
	rep.set("client.refresh_noop_share", ratio(float64(r.noops), float64(r.refreshes.n())), "ratio", r.refreshes.n())
	rep.set("server.telemetry_post_ms", r.rt.post.pct(50), "ms", r.rt.post.n())
	rep.set("server.model_get_ms", r.rt.get.pct(50), "ms", r.rt.get.n())
	rep.set("server.model_put_ms", r.rt.put.pct(50), "ms", r.rt.put.n())
	rep.set("server.http_errors", float64(r.rt.errorsBetween(t0, end)), "count", r.rt.post.n()+r.rt.get.n()+r.rt.put.n())

	stepMS, idleMS, trainMS := newSeries(0), newSeries(0), newSeries(0)
	for _, st := range r.steps[steps0:] {
		stepMS.addDur(st.end.Sub(st.start), time.Millisecond)
		if st.res != nil && st.res.Retrained {
			trainMS.addDur(st.selfNS, time.Millisecond)
		} else {
			idleMS.addDur(st.end.Sub(st.start), time.Millisecond)
		}
	}
	rep.set("trainer.step_ms", stepMS.pct(50), "ms", stepMS.n())
	rep.set("trainer.idle_step_ms", idleMS.pct(50), "ms", idleMS.n())
	rep.set("trainer.train_ms", trainMS.pct(50), "ms", trainMS.n())
	rep.set("trainer.retrains", float64(retrains), "count", stepMS.n())
	rep.set("trainer.publishes", float64(pubs), "count", stepMS.n())
	rep.set("trainer.publish_ratio", ratio(float64(pubs), float64(retrains)), "ratio", int(retrains))

	rep.set("loop.detect_ms", a.detectMS.pct(50), "ms", a.detectMS.n())
	rep.set("loop.retrain_ms", a.retrainMS.pct(50), "ms", a.retrainMS.n())
	rep.set("loop.distribute_ms", a.distributeMS.pct(50), "ms", a.distributeMS.n())
	rep.set("loop.adapted_share", ratio(float64(a.adaptMS.n()-a.unadapted), float64(len(r.cycles))), "ratio", len(r.cycles))
	rep.set("error_rate", ratio(float64(a.outcome.failed), float64(a.outcome.attempted)), "ratio", a.outcome.attempted)
	return a.outcome, nil
}

// loopAnalysis is what the cycles of one timed run add up to.
type loopAnalysis struct {
	outcome                           outcome
	adaptMS                           *series
	unadapted                         int
	detectMS, retrainMS, distributeMS *series
	simSpeedup                        float64
	overhead, untunedUS               float64
	untunedN                          int
}

// analyze attributes swaps, publishes, trainer steps and failures to the
// cycles of the timed run, and checks that every adapted cycle serves the
// version the trainer published with that version's lineage loop ID.
func (r *loopRig) analyze(t0, end time.Time) (*loopAnalysis, error) {
	a := &loopAnalysis{
		outcome: outcome{attempted: len(r.cycles), correct: true},
		adaptMS: newSeries(0), detectMS: newSeries(0), retrainMS: newSeries(0), distributeMS: newSeries(0),
	}
	if len(r.cycles) == 0 {
		return nil, errors.New("the app ran no cycle")
	}
	swaps, pubs := r.watch.swapList(), r.pub.publishes()
	byVersion := map[int]published{}
	for _, p := range pubs {
		byVersion[p.version] = p
	}
	for i, c := range r.cycles {
		next := c.end
		dropEnd, discEnd := r.rec.Dropped(), r.up.Discarded()
		if i+1 < len(r.cycles) {
			dropEnd, discEnd = r.cycles[i+1].dropped, r.cycles[i+1].discarded
		}
		failed := dropEnd != c.dropped || discEnd != c.discarded || r.rt.errorsBetween(c.switchAt, next) > 0 ||
			r.trainErrorsBetween(c.switchAt, next) > 0

		var adapted *swap
		for j := range swaps {
			s := &swaps[j]
			if !s.at.After(c.switchAt) || !s.at.Before(next) {
				continue
			}
			if p, ok := byVersion[s.version]; ok && p.start.After(c.switchAt) {
				adapted = s
				break
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: cycle %d size=%d machine=%.12s steps=%d drops=%d discards=%d http_errors=%d train_errors=%d adapted=%v",
			i, c.reg.size, c.reg.machine.Name, c.steps, dropEnd-c.dropped, discEnd-c.discarded,
			r.rt.errorsBetween(c.switchAt, next), r.trainErrorsBetween(c.switchAt, next), adapted != nil)
		if adapted != nil {
			fmt.Fprintf(os.Stderr, " after=%v version=%d", adapted.at.Sub(c.switchAt).Round(time.Millisecond), adapted.version)
		}
		fmt.Fprintln(os.Stderr)
		if adapted == nil {
			a.unadapted++
			a.adaptMS.addDur(next.Sub(c.switchAt), time.Millisecond)
			a.outcome.failed++
			continue
		}
		a.adaptMS.addDur(adapted.at.Sub(c.switchAt), time.Millisecond)
		p := byVersion[adapted.version]
		if !p.lineage || p.loopID == "" || adapted.loopID != p.loopID {
			a.outcome.correct = false
			failed = true
		}
		for _, st := range r.steps {
			if st.res != nil && st.res.Published && st.res.Version == adapted.version {
				a.detectMS.addDur(st.pollEnd.Sub(c.switchAt), time.Millisecond)
				a.retrainMS.addDur(p.start.Sub(st.pollEnd), time.Millisecond)
				break
			}
		}
		a.distributeMS.addDur(adapted.at.Sub(p.start), time.Millisecond)
		if failed {
			a.outcome.failed++
		}
	}
	if err := r.modelledTimes(a); err != nil {
		return nil, err
	}
	return a, nil
}

// modelledTimes computes sim_speedup and the tuner overhead ratio. The
// default time of a cycle is its step count times the per-step modelled
// time of an untuned run of the same regime; the overhead ratio is the
// median over timed steps of the step's run time over the untuned
// median run time at its size, minus 1.
func (r *loopRig) modelledTimes(a *loopAnalysis) error {
	type key struct {
		size    int
		machine string
	}
	perStep := map[key]float64{}
	untuned := map[int]*series{}
	all := newSeries(0)
	const refSteps = 20
	var defNS, tunedNS float64
	for _, c := range r.cycles {
		k := key{c.reg.size, c.reg.machine.Name}
		if _, ok := perStep[k]; !ok {
			clk := platform.NewSimClock(c.reg.machine, loopNoise, r.o.seed)
			ctx := raja.NewSimContext(clk, lulesh.Descriptor().DefaultParams)
			sim, err := lulesh.Descriptor().New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: "sedov", Size: c.reg.size})
			if err != nil {
				return err
			}
			if untuned[c.reg.size] == nil {
				untuned[c.reg.size] = newSeries(0)
			}
			for i := 0; i < refSteps; i++ {
				t0 := time.Now()
				sim.Step()
				d := time.Since(t0)
				untuned[c.reg.size].addDur(d, time.Microsecond)
				all.addDur(d, time.Microsecond)
			}
			perStep[k] = clk.NowNS() / refSteps
		}
		defNS += perStep[k] * float64(c.steps)
		tunedNS += c.modelledNS
	}
	a.simSpeedup = ratio(defNS, tunedNS)
	rel := newSeries(0)
	for i, us := range r.execUS.v {
		if u := untuned[r.stepSize[i]]; u != nil {
			rel.add(ratio(us, u.pct(50)))
		}
	}
	a.overhead = rel.pct(50) - 1
	a.untunedUS, a.untunedN = all.pct(50), all.n()
	return nil
}
