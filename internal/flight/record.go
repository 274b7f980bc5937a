// Package flight is Apollo's always-on decision flight recorder: a
// lock-free, fixed-memory ring of decision-provenance records that every
// tuned kernel launch can write to at hot-path cost (tens of
// nanoseconds, zero allocations) and that live debug endpoints read
// without stopping the writers.
//
// Each record captures one decision end to end: which site (kernel or
// model) decided, the feature snapshot the model saw, the root-to-leaf
// trail through the decision tree (feature, threshold, direction at each
// split), the chosen parameters, the runtime the recorder predicted from
// past observations of that choice versus the runtime actually observed,
// and how the decision's own overhead broke down into feature
// extraction, model evaluation, and execution.
//
// The write side is //apollo:hotpath-clean and wait-free in steady
// state; see Recorder for the protocol. The read side (Snapshot,
// Capture) is a cold-path drain that never blocks writers for more than
// one in-flight record write.
package flight

import "apollo/internal/dtree"

const (
	// MaxFeatures is the widest feature snapshot a record can hold.
	// Table I is 41 features; the headroom lets applications with a few
	// extra custom features still record full snapshots. Wider vectors
	// are truncated, never dropped.
	MaxFeatures = 48

	// MaxTrail is the deepest decision trail a record can hold. The
	// paper's deployed models are pruned to depth 15, so 24 keeps even
	// generous trees fully explained; deeper paths keep walking but stop
	// recording (dtree.PredictTrail semantics).
	MaxTrail = 24
)

// Record is one decision's provenance. It is a fixed-size, pointer-free
// value (~1 KiB) so a ring of them is a single allocation and writers
// fill slots in place without touching the garbage collector.
//
// Fields beyond NumFeatures in Features and beyond TrailLen in Trail are
// stale leftovers from earlier occupants of the slot; readers must bound
// themselves by the lengths.
type Record struct {
	// Seq is the record's global emission sequence number (from 1).
	Seq uint64
	// TimeNS is the monotonic emission timestamp (flight.Now clock).
	TimeNS int64
	// Site identifies the decision site (kernel ID, model hash, ...);
	// RegisterSite attaches a human-readable name.
	Site uint64
	// Iterations is the tuned region's iteration count (0 if unknown).
	Iterations int64
	// Policy and Chunk are the chosen execution parameters. Sites that
	// decide something other than a raja policy store their class in
	// Policy and leave Chunk 0.
	Policy int32
	Chunk  int32
	// Predicted is the model's predicted class, or -1 when no model ran
	// (static tuning, explore override recorded separately).
	Predicted int32
	// NumFeatures and TrailLen bound the valid prefixes of Features and
	// Trail.
	NumFeatures int32
	TrailLen    int32
	// Explored reports that the tuner overrode the model's choice to
	// gather fresh telemetry, so Policy/Chunk may differ from Predicted.
	Explored bool
	// PredictedNS is the runtime the recorder expected for this site and
	// choice — the EWMA of previous observations (0 until the first
	// observation; see PredictObserve). ObservedNS is what actually
	// happened.
	PredictedNS float64
	ObservedNS  float64
	// FeatureNS and ModelNS are the decision's own overhead: time spent
	// extracting the feature snapshot and evaluating the model.
	FeatureNS float64
	ModelNS   float64
	// Features is the feature snapshot, source-schema layout.
	Features [MaxFeatures]float64
	// Trail is the root-to-leaf decision trail, with Feature indices in
	// the source schema (-1 for model features the source lacks). Sites
	// that run both a policy and a chunk model concatenate the two trails.
	Trail [MaxTrail]dtree.TrailStep
}
