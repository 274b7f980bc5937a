package apollo_test

import (
	"io"
	"sync"
	"testing"

	"apollo"
	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/harness"
	"apollo/internal/raja"
	"apollo/internal/team"
	"apollo/internal/tuner"
)

// benchRunner is shared across the experiment benchmarks so the training
// data of the three applications is recorded once per `go test -bench`.
var (
	benchRunnerOnce sync.Once
	benchRunner     *harness.Runner
)

func sharedRunner() *harness.Runner {
	benchRunnerOnce.Do(func() {
		benchRunner = harness.NewRunner(harness.Options{Out: io.Discard, Quick: true, Seed: 99})
	})
	return benchRunner
}

// benchExperiment runs one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := sharedRunner()
	// Warm the recorded-data cache outside the timer.
	if err := r.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation.

func BenchmarkFig1PolicyVariation(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig2DynamicBest(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig4ExampleTree(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkTable1Features(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkTable2Accuracy(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkFig6PredictedPolicies(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7PredictedChunks(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8FeatureImportance(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9FeatureReduction(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10DepthReduction(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11Speedup(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12CleverLeafScaling(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13ARESScaling(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkTable3CrossApp(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkTable4Taxonomy(b *testing.B)         { benchExperiment(b, "table4") }

// --- Overhead micro-benchmarks: the paper's "fast decisions" claim. ---

// trainedBenchModel builds a small policy model over synthetic samples.
func trainedBenchModel(b *testing.B) (*core.Model, *features.Schema) {
	b.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{16, 64, 256, 1024, 4096, 16384, 65536, 262144} {
		seq := make([]float64, schema.Len()+3)
		omp := make([]float64, schema.Len()+3)
		seq[ni], omp[ni] = float64(n), float64(n)
		seq[schema.Len()] = float64(raja.SeqExec)
		omp[schema.Len()] = float64(raja.OmpParallelForExec)
		seq[schema.Len()+2] = float64(n) * 10
		omp[schema.Len()+2] = 8000 + float64(n)*10/8
		frame.AddRow(seq)
		frame.AddRow(omp)
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return model, schema
}

// BenchmarkModelPredict measures one raw tree evaluation — the inner loop
// of every Apollo decision.
func BenchmarkModelPredict(b *testing.B) {
	model, schema := trainedBenchModel(b)
	x := make([]float64, schema.Len())
	x[schema.Index(features.NumIndices)] = 4096
	proj := model.NewProjector(schema)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += proj.Predict(x)
	}
	_ = sink
}

// BenchmarkTunerDecision measures a full apollo::begin: feature
// extraction from the launch plus model evaluation.
func BenchmarkTunerDecision(b *testing.B) {
	model, schema := trainedBenchModel(b)
	ann := caliper.New()
	ann.Set(features.Timestep, 10)
	tn := tuner.NewTuner(schema, ann, raja.Params{}).UsePolicyModel(model)
	k := raja.NewKernel("bench::decision", nil)
	iset := raja.NewRange(0, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.Begin(k, iset)
	}
}

// BenchmarkForAllSeq measures the dispatch overhead of an uninstrumented
// sequential forall (empty 64-iteration body).
func BenchmarkForAllSeq(b *testing.B) {
	ctx := &raja.Context{Default: raja.Params{Policy: raja.SeqExec}}
	k := raja.NewKernel("bench::seq", nil)
	iset := raja.NewRange(0, 64)
	body := func(i int) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raja.ForAll(ctx, k, iset, body)
	}
}

// BenchmarkForAllTuned measures a tuned sequential forall: the full
// Apollo hook path around the same 64-iteration body.
func BenchmarkForAllTuned(b *testing.B) {
	model, schema := trainedBenchModel(b)
	ann := caliper.New()
	tn := tuner.NewTuner(schema, ann, raja.Params{}).UsePolicyModel(model)
	ctx := &raja.Context{Default: raja.Params{Policy: raja.SeqExec}, Hooks: tn}
	k := raja.NewKernel("bench::tuned", nil)
	iset := raja.NewRange(0, 64)
	body := func(i int) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raja.ForAll(ctx, k, iset, body)
	}
}

// BenchmarkTeamParallelFor measures the real fork/join cost of the
// goroutine worker team.
func BenchmarkTeamParallelFor(b *testing.B) {
	tm := team.New(4)
	defer tm.Close()
	body := func(i int) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.ParallelFor(0, 1024, 64, body)
	}
}

// BenchmarkTreeTraining measures off-line CART induction on a
// representative labeled set (the cost Apollo moves out of the runtime).
func BenchmarkTreeTraining(b *testing.B) {
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	rng := dataset.NewRNG(5)
	ni := schema.Index(features.NumIndices)
	fs := schema.Index(features.FuncSize)
	for i := 0; i < 500; i++ {
		n := float64(rng.Intn(100000) + 1)
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = n
			row[fs] = float64(rng.Intn(80))
			row[schema.Len()] = float64(pol)
			if pol == raja.SeqExec {
				row[schema.Len()+2] = n * 10
			} else {
				row[schema.Len()+2] = 8000 + n*10/8
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(set, core.TrainConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratedDecisionFunc measures the compiled-style decision
// closure produced by the code generator.
func BenchmarkGeneratedDecisionFunc(b *testing.B) {
	model, schema := trainedBenchModel(b)
	fn := compileFunc(model)
	x := make([]float64, schema.Len())
	x[schema.Index(features.NumIndices)] = 4096
	base := apollo.Params{Policy: apollo.OmpParallelForExec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base = fn(x, base)
	}
	_ = base
}

// compileFunc stands in for the generated decision function: the tree
// walk merged into the base parameters, as codegen.Generate emits it.
func compileFunc(m *core.Model) func([]float64, raja.Params) raja.Params {
	tree := m.Tree
	return func(x []float64, base raja.Params) raja.Params {
		base.Policy = raja.Policy(tree.Predict(x))
		return base
	}
}

// BenchmarkTunerDecisionParallel drives one tuner from all procs at
// once: Begin is lock-free, so throughput should scale instead of
// serializing on a mutex.
func BenchmarkTunerDecisionParallel(b *testing.B) {
	model, schema := trainedBenchModel(b)
	ann := caliper.New()
	ann.Set(features.Timestep, 10)
	tn := tuner.NewTuner(schema, ann, raja.Params{}).UsePolicyModel(model)
	iset := raja.NewRange(0, 5000)
	b.RunParallel(func(pb *testing.PB) {
		k := raja.NewKernel("bench::decision-par", nil)
		for pb.Next() {
			tn.Begin(k, iset)
		}
	})
}
