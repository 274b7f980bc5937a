package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticRecords describe one region ("daxpy" at num_indices=1024)
// observed under two variants thanks to exploration: the model keeps
// choosing class 0 (mean 900ns) while the explored class 1 runs in
// 500ns — a misprediction with 80% regret — plus a second region with
// only one variant, which must be skipped as incomparable.
func syntheticRecords() []flightRecord {
	feats := map[string]float64{"num_indices": 1024}
	path := []string{"num_indices (=1024) <= 2048 → left", "leaf"}
	recs := []flightRecord{
		{Site: "daxpy", Policy: 0, Predicted: 0, ObservedNS: 800, Features: feats, Path: path},
		{Site: "daxpy", Policy: 0, Predicted: 0, ObservedNS: 1000, Features: feats, Path: path},
		{Site: "daxpy", Policy: 1, Predicted: 0, Explored: true, ObservedNS: 500, Features: feats, Path: path},
		{Site: "daxpy", Policy: 0, Predicted: 0, ObservedNS: 900,
			Features: map[string]float64{"num_indices": 64},
			Path:     []string{"num_indices (=64) <= 96 → left"}},
	}
	return recs
}

func TestMispredictTable(t *testing.T) {
	rows := mispredictTable(syntheticRecords())
	if len(rows) != 1 {
		t.Fatalf("got %d comparable regions, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.chosen != "class=0" || r.best != "class=1" {
		t.Errorf("chosen=%q best=%q, want class=0 vs class=1", r.chosen, r.best)
	}
	if r.chosenMeanNS != 900 || r.bestMeanNS != 500 {
		t.Errorf("means %g/%g, want 900/500", r.chosenMeanNS, r.bestMeanNS)
	}
	if r.regret != 0.8 {
		t.Errorf("regret %g, want 0.8", r.regret)
	}
	if r.launches != 3 {
		t.Errorf("launches %d, want 3", r.launches)
	}
	if !strings.Contains(r.region, "num_indices=1024") {
		t.Errorf("region key %q lacks the feature snapshot", r.region)
	}
}

func TestMispredictTableAllAgree(t *testing.T) {
	// When exploration confirms the chosen variant is fastest, the row
	// stays but the verdict is "ok": chosen == best.
	recs := []flightRecord{
		{Site: "s", Policy: 0, ObservedNS: 100, Features: map[string]float64{"n": 1}},
		{Site: "s", Policy: 1, Explored: true, ObservedNS: 400, Features: map[string]float64{"n": 1}},
	}
	rows := mispredictTable(recs)
	if len(rows) != 1 || rows[0].chosen != rows[0].best {
		t.Fatalf("want one agreeing row, got %+v", rows)
	}
}

func TestWriteTablesRender(t *testing.T) {
	var tbl, hist strings.Builder
	recs := syntheticRecords()
	writeMispredictTable(&tbl, recs, 20)
	for _, want := range []string{"MISPRED", "class=0", "class=1", "80.0%", "daxpy num_indices=1024"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("misprediction table missing %q:\n%s", want, tbl.String())
		}
	}
	writePathHistogram(&hist, recs, 20)
	if !strings.Contains(hist.String(), "2 distinct paths") {
		t.Errorf("histogram header wrong:\n%s", hist.String())
	}
	if !strings.Contains(hist.String(), "3x daxpy") || !strings.Contains(hist.String(), "num_indices (=1024) <= 2048 → left") {
		t.Errorf("histogram missing dominant path:\n%s", hist.String())
	}
}

func TestFlightCmdReadsCaptureFile(t *testing.T) {
	capture := `{
	  "format": "apollo-flight-v1",
	  "emitted": 3, "dropped": 0,
	  "records": [
	    {"seq":1,"site":"daxpy","policy":0,"observed_ns":800,"features":{"num_indices":1024},"path":["leaf"]},
	    {"seq":2,"site":"daxpy","policy":1,"explored":true,"observed_ns":500,"features":{"num_indices":1024},"path":["leaf"]}
	  ]
	}`
	path := filepath.Join(t.TempDir(), "capture.json")
	if err := os.WriteFile(path, []byte(capture), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFlightCmd([]string{"-in", path}); err != nil {
		t.Fatalf("flight subcommand failed: %v", err)
	}
	if err := runFlightCmd([]string{"-in", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing capture file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"format":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFlightCmd([]string{"-in", bad}); err == nil ||
		!strings.Contains(err.Error(), "apollo-flight-v1") {
		t.Errorf("wrong-format capture accepted: %v", err)
	}
	if err := runFlightCmd(nil); err == nil {
		t.Error("no input accepted")
	}
}

// TestFlightCmdReadsOffsetEraCapture: captures written before decision
// trails were always stored as TrailSteps carry a per-site tree layout
// and feature mapping ("src") and per-record "trail_offsets" next to the
// rendered path. The reader ignores those fields and analyses the
// rendered path.
func TestFlightCmdReadsOffsetEraCapture(t *testing.T) {
	capture := `{
	  "format": "apollo-flight-v1",
	  "emitted": 1, "dropped": 0,
	  "sites": [{"id":"0x7","name":"daxpy","features":["num_indices","trip_count"],
	             "src":[0,1]}],
	  "records": [
	    {"seq":1,"site":"daxpy","site_id":"0x7","policy":1,"predicted":1,"observed_ns":800,
	     "features":{"num_indices":1024,"trip_count":1024},
	     "path":["num_indices (=1024) > 96 → right","trip_count (=1024) > 256 → right"],
	     "trail_offsets":[0,1,-2]}
	  ]
	}`
	var c flightCapture
	if err := json.Unmarshal([]byte(capture), &c); err != nil {
		t.Fatalf("decoding offset-era capture: %v", err)
	}
	if len(c.Records) != 1 || len(c.Records[0].Path) != 2 {
		t.Fatalf("records = %+v", c.Records)
	}
	var hist bytes.Buffer
	writePathHistogram(&hist, c.Records, 20)
	if !strings.Contains(hist.String(), "trip_count (=1024) > 256 → right") {
		t.Errorf("histogram lost the rendered path:\n%s", hist.String())
	}
}

func TestTraceCmdValidates(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(
		`[{"name":"daxpy","cat":"kernel","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
		  {"name":"daxpy decision","cat":"decision","ph":"X","ts":0,"dur":1,"pid":1,"tid":0}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTraceCmd([]string{"-in", good}); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`[{"name":"","ph":"B"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTraceCmd([]string{"-in", bad}); err == nil {
		t.Error("malformed trace accepted")
	}
	notjson := filepath.Join(dir, "not.json")
	if err := os.WriteFile(notjson, []byte(`{"oops":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTraceCmd([]string{"-in", notjson}); err == nil {
		t.Error("non-array trace accepted")
	}
}
