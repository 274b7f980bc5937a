package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/registry"
)

// inspectedModel is one model gathered from a registry directory, a live
// service, or a file, ready for reporting and verification.
type inspectedModel struct {
	Name    string
	Version int
	Model   *core.Model
}

// runModelsCmd implements `apollo-inspect models`: the model report (per
// model: parameter, node and leaf counts, depth) over a registry
// directory, a live model service, or a single model file. With -verify
// it checks every tree is structurally valid and, for -url, that the
// local tree walk agrees with the live /predict endpoint, single and
// batch, on threshold-boundary and random vectors — exiting non-zero on
// any disagreement.
func runModelsCmd(args []string) error {
	fs := flag.NewFlagSet("models", flag.ContinueOnError)
	dir := fs.String("dir", "", "registry directory (as served by apollo-serve -dir)")
	url := fs.String("url", "", "model service base URL (e.g. http://127.0.0.1:8080)")
	model := fs.String("model", "", "single model or envelope JSON file")
	verify := fs.Bool("verify", false, "validate every tree and, with -url, check the local walk against live /predict")
	vectors := fs.Int("vectors", 256, "random probe vectors per model for -verify with -url (boundary probes are always added)")
	timeout := fs.Duration("timeout", 3*time.Second, "HTTP timeout for -url fetches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := 0
	for _, s := range []string{*dir, *url, *model} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("set exactly one of -dir, -url, -model")
	}

	hc := &http.Client{Timeout: *timeout}
	var models []inspectedModel
	var err error
	switch {
	case *dir != "":
		models, err = modelsFromDir(*dir)
	case *url != "":
		models, err = modelsFromURL(hc, *url)
	default:
		models, err = modelsFromFile(*model)
	}
	if err != nil {
		return err
	}
	if len(models) == 0 {
		return fmt.Errorf("no models found")
	}
	sort.Slice(models, func(i, j int) bool { return models[i].Name < models[j].Name })

	fmt.Printf("%-32s %7s  %-16s %6s %6s %6s\n",
		"model", "version", "parameter", "nodes", "leaves", "depth")
	for _, im := range models {
		t := im.Model.Tree
		fmt.Printf("%-32s %7d  %-16s %6d %6d %6d\n",
			im.Name, im.Version, im.Model.Param.String(), t.NumNodes(), t.NumLeaves(), t.Depth())
	}

	if !*verify {
		return nil
	}
	fmt.Println()
	for _, im := range models {
		if err := im.Model.Tree.Validate(); err != nil {
			return fmt.Errorf("model %s: %w", im.Name, err)
		}
		if *url == "" {
			fmt.Printf("%s: tree valid\n", im.Name)
			continue
		}
		n, err := verifyLive(hc, *url, im.Name, im.Model, probeVectors(im.Model, *vectors))
		if err != nil {
			return fmt.Errorf("model %s: %w", im.Name, err)
		}
		fmt.Printf("%s: tree valid, local walk == live /predict on %d vectors\n", im.Name, n)
	}
	return nil
}

func modelsFromDir(dir string) ([]inspectedModel, error) {
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, err
	}
	var out []inspectedModel
	for _, name := range reg.Names() {
		if e, ok := reg.Get(name); ok {
			out = append(out, inspectedModel{Name: e.Name, Version: e.Version, Model: e.Model})
		}
	}
	return out, nil
}

func modelsFromURL(hc *http.Client, base string) ([]inspectedModel, error) {
	data, err := httpGet(hc, base+"/models")
	if err != nil {
		return nil, err
	}
	var list struct {
		Models []struct {
			Name string `json:"name"`
		} `json:"models"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("decoding model list: %w", err)
	}
	var out []inspectedModel
	for _, mi := range list.Models {
		data, err := httpGet(hc, base+"/models/"+mi.Name)
		if err != nil {
			return nil, err
		}
		env, err := core.ParseModelOrEnvelope(data)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", mi.Name, err)
		}
		out = append(out, inspectedModel{Name: mi.Name, Version: env.Version, Model: env.Model})
	}
	return out, nil
}

func modelsFromFile(path string) ([]inspectedModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	env, err := core.ParseModelOrEnvelope(data)
	if err != nil {
		return nil, err
	}
	name := env.Name
	if name == "" {
		name = path
	}
	return []inspectedModel{{Name: name, Version: env.Version, Model: env.Model}}, nil
}

func httpGet(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// probeVectors builds the differential corpus for one model: for every
// split threshold in the tree, vectors probing the exact boundary and
// one ULP to either side (where `<=` versus `<` mistakes live), plus
// NaN and infinity probes and a deterministic random sweep.
func probeVectors(m *core.Model, random int) [][]float64 {
	width := m.Schema.Len()
	var probes [][]float64
	vec := func() []float64 { return make([]float64, width) }

	var walk func(n *dtree.Node)
	walk = func(n *dtree.Node) {
		if n == nil || n.Feature < 0 {
			return
		}
		for _, v := range []float64{
			n.Threshold,
			math.Nextafter(n.Threshold, math.Inf(1)),
			math.Nextafter(n.Threshold, math.Inf(-1)),
			math.NaN(),
		} {
			x := vec()
			x[n.Feature] = v
			probes = append(probes, x)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(m.Tree.Root)

	inf := vec()
	ninf := vec()
	for i := range inf {
		inf[i] = math.Inf(1)
		ninf[i] = math.Inf(-1)
	}
	probes = append(probes, vec(), inf, ninf)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < random; i++ {
		x := vec()
		for j := range x {
			x[j] = math.Trunc(rng.NormFloat64() * 1e4)
		}
		probes = append(probes, x)
	}
	return probes
}

// verifyLive replays finite probes against the live /predict endpoint,
// one batch request plus a handful of single-vector requests, and
// compares with the local tree walk. It returns how many vectors it
// checked.
func verifyLive(hc *http.Client, base, name string, m *core.Model, probes [][]float64) (int, error) {
	var finite [][]float64
	for _, x := range probes {
		ok := true
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
		}
		if ok {
			finite = append(finite, x)
		}
	}
	if len(finite) == 0 {
		return 0, nil
	}
	post := func(req any) (map[string]any, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Post(base+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("POST /predict: reading response: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("POST /predict: %s: %s", resp.Status, data)
		}
		var out map[string]any
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, err
		}
		return out, nil
	}

	out, err := post(map[string]any{"model": name, "batch": finite})
	if err != nil {
		return 0, err
	}
	classes, _ := out["classes"].([]any)
	if len(classes) != len(finite) {
		return 0, fmt.Errorf("live batch returned %d classes for %d vectors", len(classes), len(finite))
	}
	for i, c := range classes {
		if want := m.Tree.Predict(finite[i]); int(c.(float64)) != want {
			return 0, fmt.Errorf("vector %d: live batch class=%v, local walk=%d", i, c, want)
		}
	}
	singles := len(finite)
	if singles > 8 {
		singles = 8
	}
	for i := 0; i < singles; i++ {
		out, err := post(map[string]any{"model": name, "x": finite[i]})
		if err != nil {
			return 0, err
		}
		class, _ := out["class"].(float64)
		if want := m.Tree.Predict(finite[i]); int(class) != want {
			return 0, fmt.Errorf("vector %d: live class=%g, local walk=%d", i, class, want)
		}
	}
	return len(finite) + singles, nil
}
