package codegen

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
)

func trainedPolicyModel(t *testing.T) (*core.Model, *core.LabeledSet) {
	t.Helper()
	schema := features.NewSchema(features.NumIndices, features.NumSegments)
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	for _, n := range []int{16, 64, 256, 1024, 4096, 16384, 65536} {
		seq := float64(n) * 12
		omp := 9000 + float64(n)*12/8
		frame.AddRow([]float64{float64(n), 1, float64(raja.SeqExec), 0, seq})
		frame.AddRow([]float64{float64(n), 1, float64(raja.OmpParallelForExec), 0, omp})
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m, set
}

func TestGoIdent(t *testing.T) {
	cases := map[string]string{
		"num_indices":  "numIndices",
		"func_size":    "funcSize",
		"add":          "add",
		"shl_sal":      "shlSal",
		"problem_name": "problemName",
		"":             "x",
	}
	for in, want := range cases {
		if got := GoIdent(in); got != want {
			t.Errorf("GoIdent(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGenerateIsParseableGo(t *testing.T) {
	m, _ := trainedPolicyModel(t)
	src := Generate(m, "tuned", "ApolloBeginForall")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
}

func TestGenerateShape(t *testing.T) {
	m, _ := trainedPolicyModel(t)
	src := Generate(m, "tuned", "Decide")
	for _, want := range []string{
		"package tuned",
		"func Decide(numIndices float64, numSegments float64) raja.Params",
		"if numIndices <= ",
		"p.Policy = raja.SeqExec",
		"p.Policy = raja.OmpParallelForExec",
		"return p",
		"DO NOT EDIT",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
}

func TestGenerateChunkModel(t *testing.T) {
	schema := features.NewSchema(features.NumIndices)
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	for _, n := range []int{100, 100000} {
		for _, c := range raja.ChunkSizes {
			time := 1000.0
			if n == 100 && c != 16 {
				time = 5000
			}
			if n == 100000 && c != 512 {
				time = 5000
			}
			frame.AddRow([]float64{float64(n), float64(raja.OmpParallelForExec), float64(c), time})
		}
	}
	set, err := core.Label(frame, schema, core.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(m, "tuned", "Chunk")
	if !strings.Contains(src, "p.Chunk = 16") || !strings.Contains(src, "p.Chunk = 512") {
		t.Errorf("chunk assignments missing:\n%s", src)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("chunk source does not parse: %v", err)
	}
}

func TestGoIdentAvoidsKeywords(t *testing.T) {
	for _, kw := range []string{"func", "range", "type", "var", "return"} {
		id := GoIdent(kw)
		if id == kw {
			t.Errorf("GoIdent(%q) = %q collides with a Go keyword", kw, id)
		}
	}
}
