package flight

import (
	"fmt"
	"sort"

	"apollo/internal/dtree"
)

// CaptureFormatID identifies the flight-capture JSON format.
const CaptureFormatID = "apollo-flight-v1"

// Capture is the JSON form of a recorder snapshot: the site table plus
// the retained records with human-readable decision-path explanations.
// It is what /debug/apollo/flight serves and apollo-inspect flight
// consumes.
type Capture struct {
	Format  string          `json:"format"`
	Emitted uint64          `json:"emitted"`
	Dropped uint64          `json:"dropped"`
	Sites   []CaptureSite   `json:"sites"`
	Records []CaptureRecord `json:"records"`
}

// CaptureSite is one registered decision site.
type CaptureSite struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Features []string `json:"features,omitempty"`
}

// CaptureRecord is one decision in a Capture.
type CaptureRecord struct {
	Seq         uint64             `json:"seq"`
	TimeNS      int64              `json:"time_ns"`
	Site        string             `json:"site"`
	SiteID      string             `json:"site_id"`
	Iterations  int64              `json:"iterations,omitempty"`
	Policy      int                `json:"policy"`
	Chunk       int                `json:"chunk,omitempty"`
	Predicted   int                `json:"predicted"`
	Explored    bool               `json:"explored,omitempty"`
	PredictedNS float64            `json:"predicted_ns"`
	ObservedNS  float64            `json:"observed_ns"`
	FeatureNS   float64            `json:"feature_ns,omitempty"`
	ModelNS     float64            `json:"model_ns,omitempty"`
	Features    map[string]float64 `json:"features,omitempty"`
	Path        []string           `json:"path,omitempty"`
}

// Capture snapshots the recorder into its JSON form.
func (r *Recorder) Capture() *Capture {
	recs := r.Snapshot()
	c := &Capture{
		Format:  CaptureFormatID,
		Emitted: r.Emitted(),
		Dropped: r.Dropped(),
		Sites:   []CaptureSite{},
		Records: make([]CaptureRecord, 0, len(recs)),
	}
	if m := r.sites.Load(); m != nil {
		for id, s := range *m {
			cs := CaptureSite{ID: fmt.Sprintf("%#x", id), Name: s.name}
			if len(s.features) > 0 {
				cs.Features = s.features
			} else {
				cs.Features = r.featureNames
			}
			c.Sites = append(c.Sites, cs)
		}
	}
	sort.Slice(c.Sites, func(i, j int) bool { return c.Sites[i].ID < c.Sites[j].ID })
	for i := range recs {
		c.Records = append(c.Records, r.captureRecord(&recs[i]))
	}
	return c
}

func (r *Recorder) captureRecord(rec *Record) CaptureRecord {
	names := r.featureNames
	siteName := ""
	if s := r.siteFor(rec.Site); s != nil {
		siteName = s.name
		if len(s.features) > 0 {
			names = s.features
		}
	}
	out := CaptureRecord{
		Seq:         rec.Seq,
		TimeNS:      rec.TimeNS,
		Site:        siteName,
		SiteID:      fmt.Sprintf("%#x", rec.Site),
		Iterations:  rec.Iterations,
		Policy:      int(rec.Policy),
		Chunk:       int(rec.Chunk),
		Predicted:   int(rec.Predicted),
		Explored:    rec.Explored,
		PredictedNS: rec.PredictedNS,
		ObservedNS:  rec.ObservedNS,
		FeatureNS:   rec.FeatureNS,
		ModelNS:     rec.ModelNS,
	}
	if n := int(rec.NumFeatures); n > 0 {
		out.Features = make(map[string]float64, n)
		for i := 0; i < n && i < MaxFeatures; i++ {
			out.Features[featureName(names, i)] = rec.Features[i]
		}
	}
	if n := int(rec.TrailLen); n > 0 {
		if n > MaxTrail {
			n = MaxTrail
		}
		out.Path = ExplainTrail(rec.Trail[:n], names)
	}
	return out
}

// featureName names feature index i, falling back to the positional
// "x[i]" form when the name table does not cover it.
func featureName(names []string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("x[%d]", i)
}

// ExplainTrail renders a decision trail as one human-readable line per
// split, in the style of the paper's Fig. 4 model listing:
//
//	num_indices (=16) <= 96 → left
//	trip_count (=4096) > 256 → right
//
// A step whose feature index is -1 consulted a model feature the source
// schema lacks (projected as zero).
func ExplainTrail(trail []dtree.TrailStep, names []string) []string {
	out := make([]string, len(trail))
	for i, st := range trail {
		name := "(absent feature)"
		if st.Feature >= 0 {
			name = featureName(names, int(st.Feature))
		}
		if st.Right {
			out[i] = fmt.Sprintf("%s (=%g) > %g → right", name, st.Value, st.Threshold)
		} else {
			out[i] = fmt.Sprintf("%s (=%g) <= %g → left", name, st.Value, st.Threshold)
		}
	}
	return out
}
