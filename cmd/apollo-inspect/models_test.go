package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/registry"
	"apollo/internal/server"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	io.Copy(&buf, r)
	return buf.String(), ferr
}

func TestModelsCmdFromFileAndDir(t *testing.T) {
	path := savedModel(t)
	out, err := captureStdout(t, func() error {
		return runModelsCmd([]string{"-model", path, "-verify", "-vectors", "64"})
	})
	if err != nil {
		t.Fatalf("models -model: %v\n%s", err, out)
	}
	for _, want := range []string{"depth", "execution_policy", "tree valid"} {
		if !strings.Contains(out, want) {
			t.Errorf("models output missing %q:\n%s", want, out)
		}
	}

	// Registry directory source: publish the same model, then report.
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("policy", m); err != nil {
		t.Fatal(err)
	}
	out, err = captureStdout(t, func() error {
		return runModelsCmd([]string{"-dir", dir, "-verify"})
	})
	if err != nil {
		t.Fatalf("models -dir: %v\n%s", err, out)
	}
	if !strings.Contains(out, "policy") || !strings.Contains(out, "tree valid") {
		t.Errorf("dir report wrong:\n%s", out)
	}

	// Live service source: the local walk must agree with /predict.
	ts := httptest.NewServer(server.New(reg).Handler())
	defer ts.Close()
	out, err = captureStdout(t, func() error {
		return runModelsCmd([]string{"-url", ts.URL, "-verify", "-vectors", "32"})
	})
	if err != nil {
		t.Fatalf("models -url: %v\n%s", err, out)
	}
	if !strings.Contains(out, "local walk == live /predict") {
		t.Errorf("url report wrong:\n%s", out)
	}
}

func TestModelsCmdFlagValidation(t *testing.T) {
	if err := runModelsCmd(nil); err == nil {
		t.Error("no source accepted")
	}
	if err := runModelsCmd([]string{"-dir", "x", "-model", "y"}); err == nil {
		t.Error("two sources accepted")
	}
	if err := runModelsCmd([]string{"-model", "/nonexistent.json"}); err == nil {
		t.Error("missing model file accepted")
	}
}

// TestProbeVectorsCoverBoundaries asserts the corpus probes every split
// threshold at and one ULP around the boundary — the vectors where a
// `<=` versus `<` mistake would surface.
func TestProbeVectorsCoverBoundaries(t *testing.T) {
	path := savedModel(t)
	m, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeVectors(m, 16)
	if len(probes) < 16 {
		t.Fatalf("only %d probes", len(probes))
	}
	var walk func(n *dtree.Node)
	walk = func(n *dtree.Node) {
		if n.IsLeaf() {
			return
		}
		found := false
		for _, x := range probes {
			if len(x) != m.Schema.Len() {
				t.Fatalf("probe width %d, schema %d", len(x), m.Schema.Len())
			}
			found = found || x[n.Feature] == n.Threshold
		}
		if !found {
			t.Errorf("no probe sits on threshold %g of feature %d", n.Threshold, n.Feature)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(m.Tree.Root)
}
