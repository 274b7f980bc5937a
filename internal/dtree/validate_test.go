package dtree

import (
	"strings"
	"testing"
)

func leafNode(label int) *Node { return &Node{Feature: -1, Label: label} }

func splitNode(feat int, th float64, l, r *Node) *Node {
	return &Node{Feature: feat, Threshold: th, Left: l, Right: r}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		tree *Tree
		want string
	}{
		{"nil tree", nil, "nil tree"},
		{"nil root", &Tree{}, "nil tree"},
		{"missing child", &Tree{Root: &Node{Feature: 0, Left: leafNode(0)}, NumFeatures: 1}, "missing a child"},
		{"missing deep child", &Tree{Root: splitNode(0, 1, leafNode(0), &Node{Feature: 0, Right: leafNode(1)}), NumFeatures: 1}, "missing a child"},
		{"feature out of range", &Tree{Root: splitNode(5, 1, leafNode(0), leafNode(1)), NumFeatures: 2}, "feature 5"},
		{"negative label", &Tree{Root: splitNode(0, 1, leafNode(-1), leafNode(0)), NumFeatures: 1}, "negative label"},
		{"label out of range", &Tree{Root: splitNode(0, 1, leafNode(0), leafNode(3)), NumFeatures: 1, NumClasses: 2}, "outside"},
	}
	for _, tc := range cases {
		if err := tc.tree.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAcceptsUnsetBounds: a hand-built tree that leaves
// NumFeatures or NumClasses zero is walkable and must pass, as must a
// lone leaf and a tree trained from data.
func TestValidateAcceptsUnsetBounds(t *testing.T) {
	X, y := thresholdData(200)
	trained, err := Train(X, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*Tree{
		"trained":        trained,
		"pruned":         trained.PruneToDepth(1),
		"lone leaf":      {Root: leafNode(2), NumFeatures: 3, NumClasses: 3},
		"unset classes":  {Root: leafNode(1)},
		"unset features": {Root: splitNode(3, 1, leafNode(0), leafNode(1))},
		"ladder": {
			Root:        splitNode(0, 10, splitNode(0, 5, leafNode(0), leafNode(1)), splitNode(0, 20, leafNode(2), leafNode(3))),
			NumFeatures: 1, NumClasses: 4,
		},
	} {
		if err := tree.Validate(); err != nil {
			t.Errorf("%s: Validate = %v, want nil", name, err)
		}
	}
}
