package client

import (
	"testing"

	"apollo/internal/features"
)

// Predict is //apollo:hotpath: once a model is cached, every launch
// decision — including one for a vector the client has never seen, the
// old memo's worst case — must cost zero allocations: one atomic map
// load plus the walk of the tree installed at fetch time.
func TestPredictCacheMissAllocationFree(t *testing.T) {
	ts, _ := newService(t)
	c := New(ts.URL, Options{})
	m := testModel(t, false)
	if _, err := c.Push("p", m); err != nil {
		t.Fatal(err)
	}
	ni := m.Schema.Index(features.NumIndices)
	x := make([]float64, m.Schema.Len())
	if _, err := c.Predict("p", x); err != nil {
		t.Fatal(err)
	}
	if cur := c.Cached("p"); cur == nil {
		t.Fatal("fetched model was not cached")
	}
	i := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		x[ni] = i // a fresh vector every call: no memo could have seen it
		if _, err := c.Predict("p", x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-miss Predict allocates %.1f objects per call, want 0", allocs)
	}
}
