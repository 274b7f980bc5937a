package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"apollo/internal/dataset"
)

// TestWorkloadsReportEveryMetric runs each workload briefly in both modes
// and checks the result line's contract: every metric present with its
// unit, at least one operation attempted, and the correctness checks
// passing.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range []string{"deploy-small", "deploy-mixed", "loop"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 2, trace: trace, workDir: t.TempDir()}
			res, rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
				if _, ok := rep.samples[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s has no sample count", name, trace, m.name)
				}
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", name, trace, res.Correct, res.Attempted)
			}
			if name != "loop" && res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d launches differ from the reference", name, trace, res.Failed, res.Attempted)
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestLoopPublishesCarryLineage checks that the timing wrappers keep the
// trainer's lineage seam: every publish through timedPublisher carries a
// lineage block, and the model the service then serves carries the same
// loop ID.
func TestLoopPublishesCarryLineage(t *testing.T) {
	o := options{workload: "loop", seed: 1, seconds: 2}
	r, _, err := setupLoop(o, filepath.Join(t.TempDir(), "rig"), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.runTimed(); err != nil {
		t.Fatal(errors.Join(err, r.close()))
	}
	got, err := r.c.Fetch(loopModel)
	if err := errors.Join(err, r.close()); err != nil {
		t.Fatal(err)
	}
	pubs := r.pub.publishes()
	if len(pubs) == 0 {
		t.Fatal("the trainer published nothing")
	}
	for _, p := range pubs {
		if !p.lineage || p.loopID == "" {
			t.Errorf("publish of v%d carried no lineage loop ID", p.version)
		}
	}
	last := pubs[len(pubs)-1]
	if got.Lineage == nil || got.Lineage.LoopID == "" {
		t.Fatalf("served v%d has no lineage", got.Version)
	}
	if got.Version == last.version && got.Lineage.LoopID != last.loopID {
		t.Errorf("served v%d loop %q, published loop %q", got.Version, got.Lineage.LoopID, last.loopID)
	}
}

// TestWrapCursorForwardsRowSourcer checks that the cursor wrapper
// implements trainer.RowSourcer exactly when the wrapped cursor does.
func TestWrapCursorForwardsRowSourcer(t *testing.T) {
	_, plain := wrapCursor(pollOnly{})
	if _, ok := plain.(interface{ SourceRows() map[string]uint64 }); ok {
		t.Error("wrapper of a plain cursor claims SourceRows")
	}
	_, rows := wrapCursor(rowCursor{})
	rs, ok := rows.(interface{ SourceRows() map[string]uint64 })
	if !ok {
		t.Fatal("wrapper of a row-sourcing cursor hides SourceRows")
	}
	if rs.SourceRows()["a"] != 7 {
		t.Error("SourceRows not forwarded")
	}
}

// TestPercentile pins the interpolation the metrics use.
func TestPercentile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := percentile(v, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(v, 90); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty p50 != 0")
	}
	var s series
	s.addDur(1500*time.Microsecond, time.Millisecond)
	if s.v[0] != 1.5 {
		t.Errorf("addDur = %v, want 1.5", s.v[0])
	}
}

type pollOnly struct{}

func (pollOnly) Poll() (*dataset.Frame, error) { return nil, nil }

type rowCursor struct{ pollOnly }

func (rowCursor) SourceRows() map[string]uint64 { return map[string]uint64{"a": 7} }

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json at the
// repository root lists exactly the metrics, with the units, that a run
// reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		want   []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, want %d", len(c.listed), len(c.want))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("BENCHMARK.json metric %d = %s/%s, want %s/%s", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
