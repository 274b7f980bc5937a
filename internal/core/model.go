package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"

	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// Model is a trained, reusable tuning model: a decision tree over a
// feature schema, predicting one tuning parameter. Models serialize to
// JSON and load at runtime without recompiling the application.
type Model struct {
	Param  Parameter
	Schema *features.Schema
	Tree   *dtree.Tree
}

// TrainConfig controls model training.
type TrainConfig struct {
	// Tree configures the underlying CART induction.
	Tree dtree.Config
}

// Train fits a decision-tree model to a labeled set.
func Train(set *LabeledSet, cfg TrainConfig) (*Model, error) {
	cfg.Tree.FeatureNames = set.Schema.Names()
	tree, err := dtree.Train(set.X, set.Y, set.Param.NumClasses(), cfg.Tree)
	if err != nil {
		return nil, err
	}
	return &Model{Param: set.Param, Schema: set.Schema, Tree: tree}, nil
}

// Predict returns the predicted class for a feature vector laid out by the
// model's own schema.
func (m *Model) Predict(x []float64) int { return m.Tree.Predict(x) }

// Params converts a predicted class into execution parameters, merging it
// into base (so a policy model leaves the chunk choice alone and vice
// versa). This is the model_params blackboard write of the paper.
func (m *Model) Params(class int, base raja.Params) raja.Params {
	switch m.Param {
	case ExecutionPolicy:
		base.Policy = raja.Policy(class)
	case ChunkSize:
		if class >= 0 && class < len(raja.ChunkSizes) {
			base.Chunk = raja.ChunkSizes[class]
		}
	}
	return base
}

// Projector maps feature vectors laid out by a source schema (typically
// the full Table I schema the recorder uses) into the model's schema. The
// mapping is precomputed so the per-launch cost is a few slice reads.
type Projector struct {
	model *Model
	src   []int32 // model feature i reads source[src[i]]; -1 reads 0
	pool  sync.Pool
}

// NewProjector builds a projector from the source schema onto the model.
func (m *Model) NewProjector(source *features.Schema) *Projector {
	p := &Projector{model: m, src: make([]int32, m.Schema.Len())}
	for i, name := range m.Schema.Names() {
		p.src[i] = int32(source.Index(name))
	}
	p.pool.New = func() any {
		buf := make([]float64, len(p.src))
		return &buf
	}
	return p
}

// Compiled returns the decision tree Predict walks. The name dates from
// when projectors carried a second, flattened copy of the tree; it is
// kept because the benchmark's layer timing calls it to time the walk
// alone.
func (p *Projector) Compiled() *dtree.Tree { return p.model.Tree }

// SourceIndex returns the model→source feature index mapping (-1 for
// model features the source lacks). Callers must not mutate it.
func (p *Projector) SourceIndex() []int32 { return p.src }

// project copies the source-layout vector into a pooled model-layout
// buffer; the caller returns the buffer with p.pool.Put.
//
//apollo:hotpath
func (p *Projector) project(source []float64) *[]float64 {
	bufp := p.pool.Get().(*[]float64)
	buf := *bufp
	for i, j := range p.src {
		if j >= 0 {
			buf[i] = source[j]
		} else {
			buf[i] = 0
		}
	}
	return bufp
}

// Predict projects the source-layout vector and evaluates the model.
// Scratch space comes from an internal pool, so it allocates nothing in
// steady state and is safe for concurrent callers — the tuner evaluates
// one shared projector from many goroutine contexts at once.
func (p *Projector) Predict(source []float64) int {
	bufp := p.project(source)
	class := p.model.Tree.Predict(*bufp)
	p.pool.Put(bufp)
	return class
}

// Model returns the model the projector evaluates.
func (p *Projector) Model() *Model { return p.model }

// PredictTrail is Predict with decision provenance: it records the
// root-to-leaf trail into the caller's buffer, with each step's Feature
// rewritten from the model's schema to the projector's *source* schema
// (-1 for model features the source lacks, which project as zero). The
// flight recorder stores source-schema indices so one feature-name table
// explains every decision regardless of which reduced model made it.
// Like Predict, it allocates nothing and is safe for concurrent callers.
//
//apollo:hotpath
func (p *Projector) PredictTrail(source []float64, trail []dtree.TrailStep) (class, steps int) {
	bufp := p.project(source)
	class, steps = p.model.Tree.PredictTrail(*bufp, trail)
	for i := 0; i < steps; i++ {
		trail[i].Feature = p.src[trail[i].Feature]
	}
	p.pool.Put(bufp)
	return class, steps
}

// FeatureRanking returns the model's features ordered by decreasing Gini
// importance, with their normalized importances (paper Fig. 8).
func (m *Model) FeatureRanking() ([]string, []float64) {
	imp := m.Tree.Importances()
	names := m.Schema.Names()
	order := make([]int, len(imp))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return imp[order[a]] > imp[order[b]] })
	rankedNames := make([]string, len(order))
	rankedImp := make([]float64, len(order))
	for k, i := range order {
		rankedNames[k] = names[i]
		rankedImp[k] = imp[i]
	}
	return rankedNames, rankedImp
}

// Reduce retrains the model on its top-k most important features and
// prunes the result to maxDepth (0 leaves depth unlimited). This produces
// the paper's lightweight deployment configuration (Section IV-B: top 5
// features, depth 15).
func (m *Model) Reduce(set *LabeledSet, topK, maxDepth int, cfg TrainConfig) (*Model, error) {
	names, _ := m.FeatureRanking()
	if topK > len(names) {
		topK = len(names)
	}
	keep := names[:topK]
	reducedSchema := set.Schema.Select(keep...)
	reduced := &LabeledSet{
		Schema:    reducedSchema,
		Param:     set.Param,
		Y:         set.Y,
		MeanTimes: set.MeanTimes,
		Weights:   set.Weights,
	}
	for _, x := range set.X {
		reduced.X = append(reduced.X, set.Schema.Project(x, reducedSchema))
	}
	cfg.Tree.MaxDepth = maxDepth
	return Train(reduced, cfg)
}

// modelJSON is the on-disk form of a Model.
type modelJSON struct {
	Format    string      `json:"format"`
	Parameter string      `json:"parameter"`
	Features  []string    `json:"features"`
	Tree      *dtree.Tree `json:"tree"`
}

const modelFormatID = "apollo-model-v1"

// MarshalJSON encodes the model.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{
		Format:    modelFormatID,
		Parameter: m.Param.String(),
		Features:  m.Schema.Names(),
		Tree:      m.Tree,
	})
}

// UnmarshalJSON decodes a model.
func (m *Model) UnmarshalJSON(data []byte) error {
	var j modelJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Format != modelFormatID {
		return fmt.Errorf("core: unknown model format %q (want %q)", j.Format, modelFormatID)
	}
	switch j.Parameter {
	case ExecutionPolicy.String():
		m.Param = ExecutionPolicy
	case ChunkSize.String():
		m.Param = ChunkSize
	default:
		return fmt.Errorf("core: unknown parameter %q", j.Parameter)
	}
	if j.Tree == nil {
		return fmt.Errorf("core: model has no tree")
	}
	seen := make(map[string]bool, len(j.Features))
	for _, name := range j.Features {
		if seen[name] {
			return fmt.Errorf("core: duplicate feature %q", name)
		}
		seen[name] = true
	}
	// The tree decoder bounds every split by the tree's declared width;
	// pinning that width to the schema's keeps every walk over a vector
	// the schema lays out in range.
	if j.Tree.NumFeatures != len(j.Features) {
		return fmt.Errorf("core: tree reads %d features but the schema names %d", j.Tree.NumFeatures, len(j.Features))
	}
	m.Schema = features.NewSchema(j.Features...)
	m.Tree = j.Tree
	return nil
}

// Save writes the model to the named file as indented JSON.
func (m *Model) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadModel reads a model from the named JSON file.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: loading %s: %w", path, err)
	}
	return &m, nil
}

// SchemaHash fingerprints the model's prediction contract: the format
// identifier, the predicted parameter, and the ordered feature names.
// Two models with equal hashes accept the same feature vectors and emit
// classes of the same parameter, so a serving registry can verify that a
// republished model is a drop-in replacement for its predecessor.
func (m *Model) SchemaHash() string {
	h := fnv.New64a()
	h.Write([]byte(modelFormatID))
	h.Write([]byte{0})
	h.Write([]byte(m.Param.String()))
	for _, name := range m.Schema.Names() {
		h.Write([]byte{0})
		h.Write([]byte(name))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TableISchemaHash is the golden fingerprint of the Table I feature
// schema: features.Fingerprint over the kernel, instruction-mix, and
// application feature names in vector order. apollo-vet's schemahash
// analyzer recomputes this from the name lists in the AST (the sources
// are named by the directive below) and fails the build on mismatch, so
// renaming or reordering a feature — which silently shifts every
// deployed model's vector layout — cannot land without deliberately
// bumping this constant together with a model format version change.
//
//apollo:schemahash apollo/internal/features.KernelFeatureNames apollo/internal/instmix.groupNames apollo/internal/features.AppFeatureNames
const TableISchemaHash uint64 = 0x512005e953bd06e6

// Envelope is the stable, versioned wire and disk form of a published
// model: the name it is registered under, its monotonic registry version,
// and the schema hash, wrapped around the model JSON. The envelope is
// what the model service stores and serves; a bare model JSON (as written
// by Model.Save) is also accepted everywhere an envelope is, at version 0.
type Envelope struct {
	Name       string
	Version    int
	SchemaHash string
	Model      *Model
	Lineage    *Lineage
}

// Lineage is the optional provenance block stamped into an envelope at
// train/publish time: which version the model grew out of, what
// telemetry window trained it, which drift signal fired, how the
// champion/challenger duel went, and who trained it. The loop ID
// correlates the envelope with the looptrace events of the retrain
// cycle that produced it, so journals from N processes stitch into one
// causal timeline. Every field is optional — hand-published and legacy
// envelopes simply have no lineage — and the whole block marshals
// deterministically (the sample-count map is sorted by encoding/json),
// which preserves the registry's ETag-convergence invariant.
type Lineage struct {
	LoopID        string `json:"loop_id,omitempty"`
	ParentVersion int    `json:"parent_version,omitempty"`
	Trainer       string `json:"trainer,omitempty"`
	TrainedAtNS   int64  `json:"trained_at_unix_ns,omitempty"`

	// Training window: total rows and per-source sample counts
	// (source = replica spool for collective training, "local" for a
	// single-spool trainer).
	WindowRows   int            `json:"window_rows,omitempty"`
	HoldoutRows  int            `json:"holdout_rows,omitempty"`
	SampleCounts map[string]int `json:"sample_counts,omitempty"`

	// Drift trigger snapshot (empty reason for a bootstrap publish).
	DriftReason       string  `json:"drift_reason,omitempty"`
	DriftMispredict   float64 `json:"drift_mispredict,omitempty"`
	DriftShift        float64 `json:"drift_shift,omitempty"`
	DriftShiftFeature string  `json:"drift_shift_feature,omitempty"`

	// Champion/challenger duel outcome on the holdout (mean predicted
	// launch cost in ns; zero champion cost for a bootstrap publish).
	DuelChampionNS   float64 `json:"duel_champion_ns,omitempty"`
	DuelChallengerNS float64 `json:"duel_challenger_ns,omitempty"`
}

const envelopeFormatID = "apollo-model-envelope-v1"

// envelopeJSON is the on-disk/wire form of an Envelope. Lineage is a
// trailing optional field: decoders that predate it ignore it, and
// envelopes without it marshal byte-identically to the pre-lineage
// format.
type envelopeJSON struct {
	Format     string   `json:"format"`
	Name       string   `json:"name"`
	Version    int      `json:"version"`
	SchemaHash string   `json:"schema_hash"`
	Model      *Model   `json:"model"`
	Lineage    *Lineage `json:"lineage,omitempty"`
}

// WrapModel builds the envelope for a model published under name at the
// given version, stamping the schema hash.
func WrapModel(name string, version int, m *Model) *Envelope {
	return &Envelope{Name: name, Version: version, SchemaHash: m.SchemaHash(), Model: m}
}

// MarshalJSON encodes the envelope.
func (e *Envelope) MarshalJSON() ([]byte, error) {
	hash := e.SchemaHash
	if hash == "" && e.Model != nil {
		hash = e.Model.SchemaHash()
	}
	return json.Marshal(envelopeJSON{
		Format:     envelopeFormatID,
		Name:       e.Name,
		Version:    e.Version,
		SchemaHash: hash,
		Model:      e.Model,
		Lineage:    e.Lineage,
	})
}

// UnmarshalJSON decodes an envelope, verifying the format identifier and
// that the recorded schema hash matches the enclosed model.
func (e *Envelope) UnmarshalJSON(data []byte) error {
	var j envelopeJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Format != envelopeFormatID {
		return fmt.Errorf("core: unknown envelope format %q (want %q)", j.Format, envelopeFormatID)
	}
	if j.Model == nil {
		return fmt.Errorf("core: envelope has no model")
	}
	if j.SchemaHash != "" && j.SchemaHash != j.Model.SchemaHash() {
		return fmt.Errorf("core: envelope schema hash %s does not match model %s",
			j.SchemaHash, j.Model.SchemaHash())
	}
	e.Name = j.Name
	e.Version = j.Version
	e.SchemaHash = j.Model.SchemaHash()
	e.Model = j.Model
	e.Lineage = j.Lineage
	return nil
}

// ParseModelOrEnvelope decodes data as either an envelope or a bare model
// JSON (Model.Save output), sniffing the format field. Bare models come
// back wrapped at version 0 with an empty name.
func ParseModelOrEnvelope(data []byte) (*Envelope, error) {
	var probe struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("core: not a model or envelope: %w", err)
	}
	switch probe.Format {
	case envelopeFormatID:
		var e Envelope
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, err
		}
		return &e, nil
	case modelFormatID:
		var m Model
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, err
		}
		return WrapModel("", 0, &m), nil
	}
	return nil, fmt.Errorf("core: unknown format %q", probe.Format)
}
