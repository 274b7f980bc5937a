package dtree

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// jsonNode is the serialized form of a Node.
type jsonNode struct {
	Feature   int       `json:"feature"`
	Threshold float64   `json:"threshold,omitempty"`
	Label     int       `json:"label"`
	Counts    []int     `json:"counts,omitempty"`
	Samples   int       `json:"samples"`
	Impurity  float64   `json:"impurity"`
	Left      *jsonNode `json:"left,omitempty"`
	Right     *jsonNode `json:"right,omitempty"`
}

// jsonTree is the serialized form of a Tree. The format is the repo's
// model exchange format: models are trained off-line, written to disk, and
// loaded by the tuner at runtime without recompiling the application —
// the paper's "pluggable models" property.
type jsonTree struct {
	Format       string    `json:"format"`
	NumFeatures  int       `json:"num_features"`
	NumClasses   int       `json:"num_classes"`
	FeatureNames []string  `json:"feature_names,omitempty"`
	Root         *jsonNode `json:"root"`
}

const formatID = "apollo-dtree-v1"

func toJSONNode(n *Node) *jsonNode {
	if n == nil {
		return nil
	}
	return &jsonNode{
		Feature:   n.Feature,
		Threshold: n.Threshold,
		Label:     n.Label,
		Counts:    n.Counts,
		Samples:   n.Samples,
		Impurity:  n.Impurity,
		Left:      toJSONNode(n.Left),
		Right:     toJSONNode(n.Right),
	}
}

func fromJSONNode(j *jsonNode) (*Node, error) {
	if j == nil {
		return nil, nil
	}
	n := &Node{
		Feature:   j.Feature,
		Threshold: j.Threshold,
		Label:     j.Label,
		Counts:    j.Counts,
		Samples:   j.Samples,
		Impurity:  j.Impurity,
	}
	if j.Feature >= 0 {
		if j.Left == nil || j.Right == nil {
			return nil, fmt.Errorf("dtree: internal node on feature %d missing a child", j.Feature)
		}
		var err error
		if n.Left, err = fromJSONNode(j.Left); err != nil {
			return nil, err
		}
		if n.Right, err = fromJSONNode(j.Right); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// MarshalJSON encodes the tree in the apollo-dtree-v1 format.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonTree{
		Format:       formatID,
		NumFeatures:  t.NumFeatures,
		NumClasses:   t.NumClasses,
		FeatureNames: t.FeatureNames,
		Root:         toJSONNode(t.Root),
	})
}

// UnmarshalJSON decodes a tree from the apollo-dtree-v1 format.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var j jsonTree
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Format != formatID {
		return fmt.Errorf("dtree: unknown model format %q (want %q)", j.Format, formatID)
	}
	if j.Root == nil {
		return fmt.Errorf("dtree: model has no root node")
	}
	root, err := fromJSONNode(j.Root)
	if err != nil {
		return err
	}
	if err := validate(root, j.NumFeatures, j.NumClasses); err != nil {
		return err
	}
	t.Root = root
	t.NumFeatures = j.NumFeatures
	t.NumClasses = j.NumClasses
	t.FeatureNames = j.FeatureNames
	t.importances = nil
	return nil
}

// Validate reports whether every walk over t ends at a leaf without
// indexing out of range: the root is set, every internal node has both
// children and splits on a feature below NumFeatures, and every node's
// label is non-negative and below NumClasses. A zero NumFeatures or
// NumClasses leaves that bound unchecked, since a hand-built tree may
// not set it; such a tree's callers must pass vectors wider than its
// largest split feature. Decoding enforces the declared bounds as given.
// The registry calls Validate before it publishes or hot-reloads a model.
func (t *Tree) Validate() error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("dtree: nil tree")
	}
	numFeatures, numClasses := t.NumFeatures, t.NumClasses
	if numFeatures == 0 {
		numFeatures = math.MaxInt
	}
	if numClasses == 0 {
		numClasses = math.MaxInt
	}
	return validate(t.Root, numFeatures, numClasses)
}

func validate(n *Node, numFeatures, numClasses int) error {
	if n.Label < 0 {
		return fmt.Errorf("dtree: node has negative label %d", n.Label)
	}
	if n.Label >= numClasses {
		return fmt.Errorf("dtree: node label %d outside [0,%d)", n.Label, numClasses)
	}
	if n.IsLeaf() {
		return nil
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("dtree: internal node on feature %d missing a child", n.Feature)
	}
	if n.Feature >= numFeatures {
		return fmt.Errorf("dtree: node splits on feature %d but model has %d features", n.Feature, numFeatures)
	}
	if err := validate(n.Left, numFeatures, numClasses); err != nil {
		return err
	}
	return validate(n.Right, numFeatures, numClasses)
}

// Save writes the tree to the named file as indented JSON.
func (t *Tree) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close() //apollo:errok Close on the error path; the write error is already being returned
		return err
	}
	return f.Close()
}

// Write encodes the tree as indented JSON to w.
func (t *Tree) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Load reads a tree from the named JSON file.
func Load(path string) (*Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Tree
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("dtree: loading %s: %w", path, err)
	}
	return &t, nil
}
