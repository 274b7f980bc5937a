package tuner

import (
	"reflect"
	"testing"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/raja"
)

func newFlightRecorder(schema *features.Schema) *flight.Recorder {
	return flight.New(flight.Options{
		Shards:        2,
		ShardCapacity: 64,
		FeatureNames:  schema.Names(),
	})
}

func TestTunerEndEmitsFlight(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model).UseFlight(fr)

	k := raja.NewKernel("daxpy", nil)
	small := raja.NewRange(0, 50)
	large := raja.NewRange(0, 100000)
	for i, launch := range []struct {
		iset *raja.IndexSet
		ns   float64
	}{{small, 500}, {small, 700}, {large, 90000}} {
		p, _ := tn.Begin(k, launch.iset)
		tn.End(k, launch.iset, p, launch.ns)
		_ = i
	}

	recs := fr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d flight records, want 3", len(recs))
	}
	if name := fr.SiteName(recs[0].Site); name != "daxpy" {
		t.Fatalf("site name %q, want daxpy", name)
	}
	first := recs[0]
	if first.Predicted != int32(raja.SeqExec) || first.Policy != int32(raja.SeqExec) {
		t.Fatalf("small launch: predicted=%d policy=%d, want seq", first.Predicted, first.Policy)
	}
	if first.Explored {
		t.Fatal("non-explored launch marked Explored")
	}
	ni := schema.Index(features.NumIndices)
	if int(first.NumFeatures) <= ni || first.Features[ni] != 50 {
		t.Fatalf("feature snapshot wrong: n=%d num_indices=%g", first.NumFeatures, first.Features[ni])
	}
	// The trail consults num_indices (the model's only informative
	// feature) in source-schema indexing.
	if first.TrailLen == 0 {
		t.Fatal("no decision trail captured")
	}
	found := false
	for _, st := range first.Trail[:first.TrailLen] {
		if int(st.Feature) == ni && st.Value == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("trail does not consult num_indices: %+v", first.Trail[:first.TrailLen])
	}
	if first.ObservedNS != 500 || first.PredictedNS != 0 {
		t.Fatalf("first record predicted/observed = %g/%g, want 0/500", first.PredictedNS, first.ObservedNS)
	}
	// Second identical launch: the EWMA now predicts the first's runtime.
	if recs[1].PredictedNS != 500 || recs[1].ObservedNS != 700 {
		t.Fatalf("second record predicted/observed = %g/%g, want 500/700", recs[1].PredictedNS, recs[1].ObservedNS)
	}
	large3 := recs[2]
	if large3.Predicted != int32(raja.OmpParallelForExec) {
		t.Fatalf("large launch predicted %d, want omp", large3.Predicted)
	}
	if large3.Iterations != 100000 {
		t.Fatalf("iterations = %d, want 100000", large3.Iterations)
	}
	if large3.FeatureNS < 0 || large3.ModelNS < 0 {
		t.Fatalf("phase timings negative: feature=%g model=%g", large3.FeatureNS, large3.ModelNS)
	}
}

// TestFlightPathsMatchOffsetEra pins the rendered decision paths of a
// single-policy site. Until trails were always stored as TrailSteps,
// such a site recorded node offsets that the capture decoded back into
// paths; the expected lines below are what that decoder rendered for
// these launches, including a value exactly on a threshold and
// multi-segment list/range index sets.
func TestFlightPathsMatchOffsetEra(t *testing.T) {
	leaf := func(l int) *dtree.Node { return &dtree.Node{Feature: -1, Label: l} }
	split := func(f int, th float64, l, r *dtree.Node) *dtree.Node {
		return &dtree.Node{Feature: f, Threshold: th, Left: l, Right: r}
	}
	// Model schema: 0 num_indices, 1 num_segments, 2 index_type.
	root := split(0, 1000,
		split(2, 0.5, leaf(0), split(1, 1.5, leaf(1), leaf(0))),
		split(0, 50000, split(1, 1, leaf(1), leaf(0)), leaf(1)))
	model := &core.Model{
		Param:  core.ExecutionPolicy,
		Schema: features.NewSchema(features.NumIndices, features.NumSegments, features.IndexType),
		Tree:   &dtree.Tree{Root: root, NumFeatures: 3, NumClasses: 2},
	}
	list := make([]int, 300)
	for i := range list {
		list[i] = 3 * i
	}
	launches := []*raja.IndexSet{
		raja.NewRange(0, 50),
		raja.NewRange(0, 1000),
		raja.NewRange(0, 1001),
		raja.NewRange(0, 100000),
		raja.NewList(list),
		raja.NewIndexSet(raja.ListSegment{Indices: list}, raja.RangeSegment{Begin: 0, End: 400}),
		raja.NewIndexSet(raja.RangeSegment{Begin: 0, End: 20000}, raja.RangeSegment{Begin: 0, End: 20000}),
	}
	want := []struct {
		predicted int
		path      []string
	}{
		{0, []string{"num_indices (=50) <= 1000 → left", "index_type (=0) <= 0.5 → left"}},
		{0, []string{"num_indices (=1000) <= 1000 → left", "index_type (=0) <= 0.5 → left"}},
		{1, []string{"num_indices (=1001) > 1000 → right", "num_indices (=1001) <= 50000 → left", "num_segments (=1) <= 1 → left"}},
		{1, []string{"num_indices (=100000) > 1000 → right", "num_indices (=100000) > 50000 → right"}},
		{1, []string{"num_indices (=300) <= 1000 → left", "index_type (=1) > 0.5 → right", "num_segments (=1) <= 1.5 → left"}},
		{0, []string{"num_indices (=700) <= 1000 → left", "index_type (=2) > 0.5 → right", "num_segments (=2) > 1.5 → right"}},
		{0, []string{"num_indices (=40000) > 1000 → right", "num_indices (=40000) <= 50000 → left", "num_segments (=2) > 1 → right"}},
	}

	schema := features.TableI()
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model).UseFlight(fr)
	k := raja.NewKernel("parity", nil)
	for _, iset := range launches {
		p, _ := tn.Begin(k, iset)
		tn.End(k, iset, p, 100)
	}
	c := fr.Capture()
	if len(c.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(c.Records), len(want))
	}
	for i, r := range c.Records {
		if r.Predicted != want[i].predicted || !reflect.DeepEqual(r.Path, want[i].path) {
			t.Errorf("launch %d: predicted %d path %q, want %d %q", i, r.Predicted, r.Path, want[i].predicted, want[i].path)
		}
	}
}

func TestTunerFlightMarksExploration(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).
		UsePolicyModel(model).UseFlight(fr).ExploreEvery(1)

	k := raja.NewKernel("explore", nil)
	iset := raja.NewRange(0, 50)
	p, _ := tn.Begin(k, iset) // every launch explores: policy flipped
	tn.End(k, iset, p, 100)

	recs := fr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.Explored {
		t.Fatal("exploration launch not marked Explored")
	}
	if rec.Policy == rec.Predicted {
		t.Fatalf("explored launch ran the predicted policy: %d", rec.Policy)
	}
}

func TestTunerFlightDetach(t *testing.T) {
	schema := features.TableI()
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UseFlight(fr)
	if tn.Flight() != fr {
		t.Fatal("Flight() does not return the attached recorder")
	}
	tn.UseFlight(nil)
	k := raja.NewKernel("k", nil)
	iset := raja.NewRange(0, 10)
	tn.End(k, iset, raja.Params{}, 100)
	if got := len(fr.Snapshot()); got != 0 {
		t.Fatalf("detached recorder received %d records", got)
	}
}

// TestTunerEndFlightZeroAlloc is the acceptance criterion for always-on
// flight recording: a full-provenance emission (feature re-extraction,
// trail-capturing model replay, EWMA update, ring write) must allocate
// nothing.
func TestTunerEndFlightZeroAlloc(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model).UseFlight(fr)
	k := raja.NewKernel("alloc", nil)
	iset := raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.SeqExec}
	if allocs := testing.AllocsPerRun(1000, func() { tn.End(k, iset, p, 100) }); allocs != 0 {
		t.Errorf("flight End: %v allocs/run, want 0", allocs)
	}
}

// BenchmarkTunerEndFlight measures the always-on flight-recording cost
// per launch: telemetry off, flight on (EXPERIMENTS.md).
func BenchmarkTunerEndFlight(b *testing.B) {
	schema := features.TableI()
	model := trainPolicyModel(b, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model).UseFlight(fr)
	k := raja.NewKernel("bench", nil)
	iset := raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.SeqExec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.End(k, iset, p, 100)
	}
}
