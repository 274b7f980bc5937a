package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"apollo/internal/dtree"
	"apollo/internal/features"
)

// fuzzThresholds mixes ordinary splits with boundary values a walk must
// handle: exact-equality thresholds, subnormals and the largest finite
// magnitudes. (JSON has no NaN or infinity, so those reach the walk only
// through the vectors.)
var fuzzThresholds = []float64{
	0, 1, -1, 0.5, 10, -10, 1e-9, -1e-9, 1e9,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// fuzzTree grows a random tree: random split features and thresholds,
// leaf probability rising with depth.
func fuzzTree(rng *rand.Rand, numFeatures, numClasses, maxDepth int) *dtree.Tree {
	var grow func(depth int) *dtree.Node
	grow = func(depth int) *dtree.Node {
		if depth >= maxDepth || rng.Float64() < 0.25 {
			return &dtree.Node{Feature: -1, Label: rng.Intn(numClasses)}
		}
		return &dtree.Node{
			Feature:   rng.Intn(numFeatures),
			Threshold: fuzzThresholds[rng.Intn(len(fuzzThresholds))],
			Left:      grow(depth + 1),
			Right:     grow(depth + 1),
		}
	}
	return &dtree.Tree{Root: grow(0), NumFeatures: numFeatures, NumClasses: numClasses}
}

// fuzzModelJSON encodes a policy model over the first numFeatures Table I
// features around tree, without validating it.
func fuzzModelJSON(f *testing.F, tree *dtree.Tree, numFeatures int) []byte {
	f.Helper()
	names := features.TableI().Names()[:numFeatures]
	data, err := json.Marshal(&Model{Param: ExecutionPolicy, Schema: features.NewSchema(names...), Tree: tree})
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzParseModel checks what a walk over a decoded model relies on:
// ParseModelOrEnvelope never panics; for every model it accepts, Predict
// and PredictTrail never panic on vectors of the schema's width,
// including NaN, ±Inf and values exactly on a threshold, and agree on
// the class; and re-encoding an accepted model is byte-identical.
func FuzzParseModel(f *testing.F) {
	// Well-formed random trees, grown from the same generator seeds and
	// shapes as the compiled-walk fuzz target this replaces.
	for _, seed := range []int64{1, 99, 7} {
		rng := rand.New(rand.NewSource(seed))
		numFeatures := 1 + rng.Intn(6)
		data := fuzzModelJSON(f, fuzzTree(rng, numFeatures, 4, 7), numFeatures)
		f.Add(data, uint64(0x7ff8000000000001), uint64(42), uint64(1<<63))
		f.Add(data, uint64(0), uint64(0xfff0000000000000), uint64(0x3ff0000000000000))
	}
	// Malformed trees a decoder must refuse.
	leaf := func(label int) *dtree.Node { return &dtree.Node{Feature: -1, Label: label} }
	split := func(feat int, th float64, l, r *dtree.Node) *dtree.Node {
		return &dtree.Node{Feature: feat, Threshold: th, Left: l, Right: r}
	}
	for _, tree := range []*dtree.Tree{
		{NumFeatures: 1, NumClasses: 2},
		{Root: &dtree.Node{Feature: 0, Left: leaf(0)}, NumFeatures: 1, NumClasses: 2},
		{Root: split(5, 1, leaf(0), leaf(1)), NumFeatures: 2, NumClasses: 2},
		{Root: split(0, 1, leaf(-1), leaf(0)), NumFeatures: 1, NumClasses: 2},
		{Root: split(3, 1, leaf(0), leaf(1)), NumFeatures: 4, NumClasses: 2},
	} {
		f.Add(fuzzModelJSON(f, tree, 1), uint64(0), uint64(0), uint64(0))
	}
	f.Add([]byte(`{"format":"apollo-model-envelope-v1","model":null}`), uint64(0), uint64(0), uint64(0))
	f.Add([]byte(`{"format":"apollo-model-v1","parameter":"execution_policy","features":["a"],`+
		`"tree":{"format":"apollo-dtree-v1","num_features":1,"num_classes":2,`+
		`"root":{"feature":0,"threshold":1,"label":0,"samples":0,"impurity":0,`+
		`"left":{"feature":-1,"label":0,"samples":0,"impurity":0}}}}`), uint64(0), uint64(0), uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, b0, b1, b2 uint64) {
		env, err := ParseModelOrEnvelope(data)
		if err != nil {
			return
		}
		m := env.Model
		width := m.Schema.Len()
		raw := []uint64{b0, b1, b2}
		x := make([]float64, width)
		for i := range x {
			x[i] = math.Float64frombits(raw[i%len(raw)] ^ uint64(i)*0x9e3779b97f4a7c15)
		}
		probes := [][]float64{x}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := make([]float64, width)
			for i := range p {
				p[i] = v
			}
			probes = append(probes, p)
		}
		var onThreshold func(n *dtree.Node)
		onThreshold = func(n *dtree.Node) {
			if n.IsLeaf() {
				return
			}
			p := append([]float64(nil), x...)
			p[n.Feature] = n.Threshold
			probes = append(probes, p)
			onThreshold(n.Left)
			onThreshold(n.Right)
		}
		onThreshold(m.Tree.Root)

		p := m.NewProjector(m.Schema)
		var trail [8]dtree.TrailStep
		for _, v := range probes {
			class := m.Predict(v)
			if got, _ := m.Tree.PredictTrail(v, trail[:]); got != class {
				t.Fatalf("PredictTrail class %d, Predict %d on %v", got, class, v)
			}
			if got := p.Predict(v); got != class {
				t.Fatalf("Projector.Predict class %d, Predict %d on %v", got, class, v)
			}
			if got, _ := p.PredictTrail(v, trail[:]); got != class {
				t.Fatalf("Projector.PredictTrail class %d, Predict %d on %v", got, class, v)
			}
		}

		enc, err := json.Marshal(env)
		if err != nil {
			t.Fatalf("re-encoding an accepted model: %v", err)
		}
		back, err := ParseModelOrEnvelope(enc)
		if err != nil {
			t.Fatalf("re-encoded model rejected: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding not byte-identical:\n%s\n%s", enc, again)
		}
	})
}

// TestFuzzSeedsCoverAcceptAndReject keeps the seed corpus honest: the
// well-formed trees decode and the malformed ones are refused.
func TestFuzzSeedsCoverAcceptAndReject(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	numFeatures := 1 + rng.Intn(6)
	tree := fuzzTree(rng, numFeatures, 4, 7)
	names := features.TableI().Names()[:numFeatures]
	good, err := json.Marshal(&Model{Param: ExecutionPolicy, Schema: features.NewSchema(names...), Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseModelOrEnvelope(good); err != nil {
		t.Fatalf("well-formed seed rejected: %v", err)
	}
	wide := &dtree.Tree{Root: &dtree.Node{Feature: 3, Threshold: 1,
		Left: &dtree.Node{Feature: -1}, Right: &dtree.Node{Feature: -1, Label: 1}}, NumFeatures: 4, NumClasses: 2}
	bad, err := json.Marshal(&Model{Param: ExecutionPolicy, Schema: features.NewSchema("a"), Tree: wide})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseModelOrEnvelope(bad); err == nil {
		t.Errorf("tree wider than its schema accepted: %s", bad)
	}
}
