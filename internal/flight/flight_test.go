package flight

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"apollo/internal/dtree"
)

// emitOne reserves, fills, and commits one record for site with the
// given observed runtime, mirroring what the tuner's End hook does.
func emitOne(r *Recorder, site uint64, class int, observed float64) {
	rec, tok := r.Reserve(site)
	if rec != nil {
		rec.Policy = int32(class)
		rec.Predicted = int32(class)
		rec.ObservedNS = observed
		rec.PredictedNS = r.PredictObserve(site, class, observed)
		rec.NumFeatures = 2
		rec.Features[0] = observed
		rec.Features[1] = float64(class)
		rec.TrailLen = 1
		rec.Trail[0] = dtree.TrailStep{Feature: 0, Right: true, Threshold: 1, Value: observed}
	}
	r.Commit(tok)
}

func TestEmitSnapshotRoundTrip(t *testing.T) {
	r := New(Options{Shards: 1, ShardCapacity: 8, FeatureNames: []string{"obs", "class"}})
	r.RegisterSite(7, "daxpy", nil)
	emitOne(r, 7, 2, 100)
	emitOne(r, 7, 2, 200)
	recs := r.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("bad seqs: %d, %d", recs[0].Seq, recs[1].Seq)
	}
	if recs[0].Site != 7 || recs[0].Policy != 2 || recs[0].ObservedNS != 100 {
		t.Fatalf("bad record: %+v", recs[0])
	}
	// First observation predicts 0; the second predicts the first's EWMA.
	if recs[0].PredictedNS != 0 {
		t.Fatalf("first prediction = %g, want 0", recs[0].PredictedNS)
	}
	if recs[1].PredictedNS != 100 {
		t.Fatalf("second prediction = %g, want 100 (prior EWMA)", recs[1].PredictedNS)
	}
	if got := r.Emitted(); got != 2 {
		t.Fatalf("Emitted = %d, want 2", got)
	}
	// Snapshot is non-destructive: the retained window still has both.
	if again := r.Snapshot(); len(again) != 2 {
		t.Fatalf("second snapshot lost records: got %d", len(again))
	}
}

func TestWraparoundKeepsNewest(t *testing.T) {
	const capacity = 8
	r := New(Options{Shards: 1, ShardCapacity: capacity, Retain: capacity})
	r.RegisterSite(1, "k", nil)
	// 3x capacity emissions without an intervening drain: the ring laps
	// itself twice; only the newest `capacity` survive, and the retained
	// window then bounds history at `capacity`.
	for i := 0; i < 3*capacity; i++ {
		emitOne(r, 1, 0, float64(i))
	}
	recs := r.Snapshot()
	if len(recs) != capacity {
		t.Fatalf("got %d records, want %d", len(recs), capacity)
	}
	for i, rec := range recs {
		want := uint64(2*capacity + i + 1)
		if rec.Seq != want {
			t.Fatalf("record %d: seq %d, want %d (newest must win wraparound)", i, rec.Seq, want)
		}
	}
	// Keep emitting after a drain: retained stays bounded and ordered.
	for i := 0; i < 2*capacity; i++ {
		emitOne(r, 1, 0, float64(i))
	}
	recs = r.Snapshot()
	if len(recs) != capacity {
		t.Fatalf("after refill: got %d records, want %d", len(recs), capacity)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

// TestConcurrentEmit hammers the recorder from a sweep of goroutine
// counts while a reader snapshots continuously. Run under -race this is
// the soundness proof for the buffer-flip protocol: any torn read or
// unsynchronized payload access fails the build.
func TestConcurrentEmit(t *testing.T) {
	for _, writers := range []int{1, 2, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)} {
		writers := writers
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			r := New(Options{Shards: 4, ShardCapacity: 64})
			const perWriter = 500
			for w := 0; w < writers; w++ {
				r.RegisterSite(uint64(w), fmt.Sprintf("site%d", w), nil)
			}
			var readerWG, writerWG sync.WaitGroup
			stop := make(chan struct{})
			readerWG.Add(1)
			go func() { // concurrent reader
				defer readerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, rec := range r.Snapshot() {
						if rec.Seq == 0 || rec.ObservedNS != float64(rec.Seq) {
							panic(fmt.Sprintf("torn record: %+v", rec))
						}
					}
				}
			}()
			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(w int) {
					defer writerWG.Done()
					for i := 0; i < perWriter; i++ {
						rec, tok := r.Reserve(uint64(w))
						if rec != nil {
							// Stamp a payload derived from the unique Seq so the
							// reader can detect tearing.
							rec.ObservedNS = float64(rec.Seq)
							rec.NumFeatures = MaxFeatures
							for f := 0; f < MaxFeatures; f++ {
								rec.Features[f] = float64(rec.Seq)
							}
						}
						r.Commit(tok)
					}
				}(w)
			}
			writerWG.Wait()
			close(stop)
			readerWG.Wait()
			if got := r.Emitted() + r.Dropped(); got != uint64(writers*perWriter) {
				t.Fatalf("emitted+dropped = %d, want %d", got, writers*perWriter)
			}
			// Everything still visible must be coherent.
			for _, rec := range r.Snapshot() {
				if rec.ObservedNS != float64(rec.Seq) {
					t.Fatalf("torn record after quiesce: %+v", rec)
				}
				for f := 0; f < int(rec.NumFeatures); f++ {
					if rec.Features[f] != float64(rec.Seq) {
						t.Fatalf("torn feature %d: %g != %d", f, rec.Features[f], rec.Seq)
					}
				}
			}
		})
	}
}

func TestEmitAllocFree(t *testing.T) {
	r := New(Options{Shards: 2, ShardCapacity: 32})
	r.RegisterSite(42, "k", nil)
	avg := testing.AllocsPerRun(1000, func() {
		rec, tok := r.Reserve(42)
		if rec != nil {
			rec.Policy = 1
			rec.ObservedNS = 5
			rec.PredictedNS = r.PredictObserve(42, 1, 5)
		}
		r.Commit(tok)
	})
	if avg != 0 {
		t.Fatalf("emit allocates %v per op, want 0", avg)
	}
}

func TestPredictObserveEWMA(t *testing.T) {
	r := New(Options{Shards: 1, ShardCapacity: 8})
	r.RegisterSite(1, "k", nil)
	if got := r.PredictObserve(1, 0, 100); got != 0 {
		t.Fatalf("first observation predicted %g, want 0", got)
	}
	if got := r.PredictObserve(1, 0, 200); got != 100 {
		t.Fatalf("second observation predicted %g, want 100", got)
	}
	// EWMA after 100 then 200: 0.75*100 + 0.25*200 = 125.
	if got := r.PredictObserve(1, 0, 0); got != 125 {
		t.Fatalf("third observation predicted %g, want 125", got)
	}
	// Classes are independent.
	if got := r.PredictObserve(1, 3, 50); got != 0 {
		t.Fatalf("fresh class predicted %g, want 0", got)
	}
	// Unregistered sites predict 0 and learn nothing.
	if got := r.PredictObserve(99, 0, 1e9); got != 0 {
		t.Fatalf("unregistered site predicted %g, want 0", got)
	}
	// Out-of-range classes clamp instead of crashing.
	_ = r.PredictObserve(1, maxClasses+5, 1)
	_ = r.PredictObserve(1, -3, 1)
}

func TestRegisterSiteIdempotent(t *testing.T) {
	r := New(Options{Shards: 1, ShardCapacity: 8})
	r.RegisterSite(1, "first", []string{"a"})
	r.PredictObserve(1, 0, 100) // seed an EWMA
	r.RegisterSite(1, "second", nil)
	if got := r.SiteName(1); got != "first" {
		t.Fatalf("re-registration replaced site: name = %q", got)
	}
	if got := r.PredictObserve(1, 0, 100); got != 100 {
		t.Fatalf("re-registration lost EWMA: predicted %g, want 100", got)
	}
	if !r.SiteKnown(1) || r.SiteKnown(2) {
		t.Fatalf("SiteKnown wrong: 1=%v 2=%v", r.SiteKnown(1), r.SiteKnown(2))
	}
}

func TestCaptureExplains(t *testing.T) {
	names := []string{"num_indices", "trip_count"}
	r := New(Options{Shards: 1, ShardCapacity: 8, FeatureNames: names})
	r.RegisterSite(7, "daxpy", nil)
	rec, tok := r.Reserve(7)
	if rec == nil {
		t.Fatal("reservation dropped on an empty ring")
	}
	rec.Policy = 1
	rec.Predicted = 1
	rec.Iterations = 4096
	rec.NumFeatures = 2
	rec.Features[0] = 16
	rec.Features[1] = 4096
	rec.TrailLen = 2
	rec.Trail[0] = dtree.TrailStep{Feature: 0, Right: false, Threshold: 96, Value: 16}
	rec.Trail[1] = dtree.TrailStep{Feature: 1, Right: true, Threshold: 256, Value: 4096}
	r.Commit(tok)

	c := r.Capture()
	if c.Format != CaptureFormatID {
		t.Fatalf("format %q", c.Format)
	}
	if len(c.Sites) != 1 || c.Sites[0].Name != "daxpy" {
		t.Fatalf("sites: %+v", c.Sites)
	}
	if len(c.Records) != 1 {
		t.Fatalf("records: %d", len(c.Records))
	}
	cr := c.Records[0]
	if cr.Site != "daxpy" || cr.Policy != 1 || cr.Iterations != 4096 {
		t.Fatalf("record: %+v", cr)
	}
	if cr.Features["num_indices"] != 16 || cr.Features["trip_count"] != 4096 {
		t.Fatalf("features: %+v", cr.Features)
	}
	wantPath := []string{
		"num_indices (=16) <= 96 → left",
		"trip_count (=4096) > 256 → right",
	}
	if len(cr.Path) != 2 || cr.Path[0] != wantPath[0] || cr.Path[1] != wantPath[1] {
		t.Fatalf("path: %q, want %q", cr.Path, wantPath)
	}
}

func TestExplainTrailFallbacks(t *testing.T) {
	trail := []dtree.TrailStep{
		{Feature: -1, Right: false, Threshold: 1, Value: 0},
		{Feature: 5, Right: true, Threshold: 2, Value: 3},
	}
	lines := ExplainTrail(trail, []string{"only"})
	if lines[0] != "(absent feature) (=0) <= 1 → left" {
		t.Fatalf("absent-feature line: %q", lines[0])
	}
	if lines[1] != "x[5] (=3) > 2 → right" {
		t.Fatalf("unnamed-feature line: %q", lines[1])
	}
}

// BenchmarkEmit measures the full hot-path emission: reserve, stamp a
// realistic payload (41 features, depth-8 trail), EWMA update, commit.
// The b.ReportAllocs figure is the EXPERIMENTS.md 0-allocs claim.
func BenchmarkEmit(b *testing.B) {
	r := New(Options{})
	r.RegisterSite(1, "k", nil)
	var trail [8]dtree.TrailStep
	for i := range trail {
		trail[i] = dtree.TrailStep{Feature: int32(i), Right: i%2 == 0, Threshold: 1, Value: 2}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, tok := r.Reserve(1)
		if rec != nil {
			rec.Iterations = int64(i)
			rec.Policy = 1
			rec.Chunk = 64
			rec.Predicted = 1
			rec.NumFeatures = 41
			for f := 0; f < 41; f++ {
				rec.Features[f] = float64(f)
			}
			rec.TrailLen = int32(copy(rec.Trail[:], trail[:]))
			rec.ObservedNS = 1000
			rec.PredictedNS = r.PredictObserve(1, 1, 1000)
			rec.FeatureNS = 50
			rec.ModelNS = 20
		}
		r.Commit(tok)
	}
}

// BenchmarkEmitParallel is the contended case: every P emitting to the
// same site (worst case: one shard).
func BenchmarkEmitParallel(b *testing.B) {
	r := New(Options{})
	r.RegisterSite(1, "k", nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec, tok := r.Reserve(1)
			if rec != nil {
				rec.Policy = 1
				rec.ObservedNS = 1000
				rec.PredictedNS = r.PredictObserve(1, 1, 1000)
			}
			r.Commit(tok)
		}
	})
}

func BenchmarkNow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Now()
	}
}
