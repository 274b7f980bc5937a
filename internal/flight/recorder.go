package flight

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// maxClasses bounds the per-site predicted-runtime table: one EWMA per
// chosen class (execution policy or chunk class). The largest class
// space today is the chunk-size model's len(raja.ChunkSizes); 16 leaves
// headroom without bloating the site entry.
const maxClasses = 16

// ewmaAlpha is the weight of a new observation in the per-(site, class)
// runtime EWMA that backs Record.PredictedNS.
const ewmaAlpha = 0.25

// slot is one ring cell: a record plus its claim word. claim is 1 while
// a writer is filling the record, 0 otherwise; a writer that finds the
// slot claimed (it lapped a straggler) drops its record rather than
// corrupting the in-flight one.
type slot struct {
	rec   Record
	claim atomic.Uint32
}

// ring is one shard's record buffer. active counts writers currently
// inside the buffer; the drain protocol (see drainLocked) swaps a fresh
// ring in and waits for active to hit zero, after which the old ring is
// quiescent and safe to read with plain loads.
type ring struct {
	active atomic.Int64
	pos    atomic.Uint64
	slots  []slot
}

func newRing(capacity int) *ring {
	return &ring{slots: make([]slot, capacity)}
}

// shard pairs the published ring with a quiescent spare the drain flips
// to, so steady-state snapshots allocate nothing. spare is guarded by
// Recorder.retainMu (only the drain touches it).
type shard struct {
	buf   atomic.Pointer[ring]
	spare *ring
	_     [40]byte // keep neighboring shards off one cache line
}

// Options configures a Recorder. The zero value is a sensible default:
// one ring shard per P, 256 records per shard, retained history equal to
// total ring capacity.
type Options struct {
	// Shards is the number of independent rings (rounded up to a power
	// of two, capped at 64). More shards mean less reservation
	// contention; records hash to shards by site.
	Shards int
	// ShardCapacity is the number of records per shard (rounded up to a
	// power of two). Total memory is roughly Shards*ShardCapacity KiB.
	ShardCapacity int
	// Retain is how many drained records the recorder keeps for the
	// "recent decisions" view after they age out of the rings.
	Retain int
	// FeatureNames names feature-vector indices for explanations, for
	// sites that do not register their own names (typically the Table I
	// schema names).
	FeatureNames []string
}

// Recorder is the flight recorder: an always-on, lock-free ring of
// decision Records.
//
// Write protocol (hot path, zero allocations): Reserve a record, fill it
// in place, Commit. Reserve pins the shard's current ring with an active
// count, double-checking the ring is still published after pinning — a
// concurrent drain that swapped rings is detected and the writer retries
// on the new ring, so payload writes only ever hit a published ring. A
// per-slot claim word turns writer-lap collisions into counted drops
// instead of torn records.
//
// Read protocol (cold path): the drain unpublishes a ring, waits for its
// writers to leave, then reads it with plain loads — no per-field
// atomics, race-detector clean — and republishes it as the next spare.
// Readers therefore never block writers beyond the fill of one record.
//
// A nil *Recorder is the disabled state; callers gate emission on a nil
// check, which is the entire cost when flight recording is off.
type Recorder struct {
	seq     atomic.Uint64
	emitted atomic.Uint64
	dropped atomic.Uint64

	shardMask uint64
	ringMask  uint64
	shards    []shard

	sites atomic.Pointer[map[uint64]*site]
	// siteMu serializes site registration (readers go through the
	// copy-on-write sites pointer and never take it).
	siteMu sync.Mutex //apollo:lockrank 30

	featureNames []string

	// retainMu serializes drains and guards retained and each shard's
	// spare ring.
	retainMu  sync.Mutex //apollo:lockrank 31
	retained  []Record
	retainCap int
}

// site is the interned metadata for one decision site, registered on
// the cold path and read lock-free on the hot path.
type site struct {
	// ewma holds the per-class observed-runtime EWMA as float64 bits.
	// Updates race benignly (a lost update loses one sample's weight);
	// each load/store is atomic so values are never torn.
	ewma     [maxClasses]atomic.Uint64
	name     string
	features []string
}

// New builds a Recorder.
func New(opts Options) *Recorder {
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > 64 {
		shards = 64
	}
	shards = ceilPow2(shards)
	capacity := opts.ShardCapacity
	if capacity <= 0 {
		capacity = 256
	}
	capacity = ceilPow2(capacity)
	r := &Recorder{
		shardMask:    uint64(shards - 1),
		ringMask:     uint64(capacity - 1),
		shards:       make([]shard, shards),
		featureNames: append([]string(nil), opts.FeatureNames...),
		retainCap:    opts.Retain,
	}
	for i := range r.shards {
		r.shards[i].buf.Store(newRing(capacity))
		r.shards[i].spare = newRing(capacity)
	}
	if r.retainCap <= 0 {
		r.retainCap = shards * capacity
	}
	return r
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// mix is splitmix64's finalizer, spreading site IDs across shards.
//
//apollo:hotpath
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Token links a reserved record back to its ring for Commit. The zero
// Token (from a dropped reservation) commits as a no-op.
type Token struct {
	ring *ring
	slot *slot
}

// Reserve claims a record slot for the given site and stamps Seq,
// TimeNS, and Site. The caller fills the remaining fields in place and
// must Commit the returned token promptly — the slot stays claimed and
// the ring stays pinned until then. Reserve returns a nil record when a
// lapping writer still owns the slot; callers must tolerate that (skip
// the fill, still call Commit).
//
//apollo:hotpath
//apollo:cowok the ring behind buf is a mutable arena, not a COW value: slots are claimed by CAS before any write and released by Commit, and drains quiesce on the active pin count before reading
func (r *Recorder) Reserve(siteID uint64) (*Record, Token) {
	sh := &r.shards[mix(siteID)&r.shardMask]
	var rb *ring
	for {
		rb = sh.buf.Load()
		rb.active.Add(1)
		if sh.buf.Load() == rb {
			break
		}
		// A drain swapped rings between our load and pin; leave and
		// retry on the newly published ring.
		rb.active.Add(-1)
	}
	s := &rb.slots[(rb.pos.Add(1)-1)&r.ringMask]
	if !s.claim.CompareAndSwap(0, 1) {
		rb.active.Add(-1)
		r.dropped.Add(1)
		return nil, Token{}
	}
	rec := &s.rec
	rec.Seq = r.seq.Add(1)
	rec.TimeNS = nanotime()
	rec.Site = siteID
	rec.Iterations = 0
	rec.Policy = 0
	rec.Chunk = 0
	rec.Predicted = -1
	rec.NumFeatures = 0
	rec.TrailLen = 0
	rec.Explored = false
	rec.PredictedNS = 0
	rec.ObservedNS = 0
	rec.FeatureNS = 0
	rec.ModelNS = 0
	return rec, Token{ring: rb, slot: s}
}

// Commit publishes a reserved record: it releases the slot claim, then
// unpins the ring, which is the happens-before edge a drain waits on
// before reading the payload.
//
//apollo:hotpath
func (r *Recorder) Commit(t Token) {
	if t.slot == nil {
		return
	}
	t.slot.claim.Store(0)
	t.ring.active.Add(-1)
	r.emitted.Add(1)
}

// Emitted returns the number of committed records since creation.
func (r *Recorder) Emitted() uint64 { return r.emitted.Load() }

// Dropped returns the number of reservations dropped on slot collisions.
func (r *Recorder) Dropped() uint64 { return r.dropped.Load() }

// Capacity returns the total ring capacity in records.
func (r *Recorder) Capacity() int { return len(r.shards) * (int(r.ringMask) + 1) }

// Occupancy reports how many ring slots hold live records in each shard
// (capped at the shard capacity — the ring wraps, so a position past
// capacity means the shard is full, not overfull). Metrics exporters
// poll it; the plain loads race benignly with writers.
func (r *Recorder) Occupancy() []int {
	out := make([]int, len(r.shards))
	capacity := int(r.ringMask) + 1
	for i := range r.shards {
		used := int(r.shards[i].buf.Load().pos.Load())
		if used > capacity {
			used = capacity
		}
		out[i] = used
	}
	return out
}

// SiteKnown reports whether the site has been registered. It is the
// hot-path gate in front of the cold RegisterSite call.
//
//apollo:hotpath
func (r *Recorder) SiteKnown(id uint64) bool {
	m := r.sites.Load()
	if m == nil {
		return false
	}
	_, ok := (*m)[id]
	return ok
}

// RegisterSite attaches a human-readable name and optional per-site
// feature names to a site ID. It is idempotent (first registration
// wins, preserving the runtime EWMAs) and safe to call concurrently
// with hot-path readers, which go through the copy-on-write map.
//
//apollo:coldpath first-launch site interning, amortized over every later emit
func (r *Recorder) RegisterSite(id uint64, name string, featureNames []string) {
	r.siteMu.Lock()
	defer r.siteMu.Unlock()
	old := r.sites.Load()
	if old != nil {
		if _, ok := (*old)[id]; ok {
			return
		}
	}
	m := make(map[uint64]*site, 1)
	if old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	m[id] = &site{name: name, features: append([]string(nil), featureNames...)}
	r.sites.Store(&m)
}

// siteFor returns the interned site entry, or nil if unregistered.
func (r *Recorder) siteFor(id uint64) *site {
	m := r.sites.Load()
	if m == nil {
		return nil
	}
	return (*m)[id]
}

// SiteName returns the registered name for a site ID ("" when unknown).
func (r *Recorder) SiteName(id uint64) string {
	if s := r.siteFor(id); s != nil {
		return s.name
	}
	return ""
}

// PredictObserve folds one observed runtime into the (site, class) EWMA
// and returns the prediction that EWMA made *before* the update — the
// runtime the recorder expected for this choice, 0 for the first
// observation. Callers store the return value in Record.PredictedNS and
// the argument in Record.ObservedNS, giving the predicted-vs-observed
// pair the misprediction analysis runs on. Unregistered sites predict 0
// and learn nothing.
//
//apollo:hotpath
func (r *Recorder) PredictObserve(siteID uint64, class int, observedNS float64) (predictedNS float64) {
	s := r.siteFor(siteID)
	if s == nil {
		return 0
	}
	if class < 0 {
		class = 0
	}
	if class >= maxClasses {
		class = maxClasses - 1
	}
	a := &s.ewma[class]
	prior := math.Float64frombits(a.Load())
	if prior == 0 {
		a.Store(math.Float64bits(observedNS))
		return 0
	}
	// A concurrent update between load and store loses one sample's
	// weight — benign for an EWMA, and keeps the hot path CAS-free.
	a.Store(math.Float64bits((1-ewmaAlpha)*prior + ewmaAlpha*observedNS))
	return prior
}

// Snapshot drains the rings into the retained history and returns a copy
// of the retained records ordered by emission sequence. It is
// non-destructive from the caller's perspective: records stay in the
// retained window (bounded by Options.Retain) until newer ones push them
// out.
func (r *Recorder) Snapshot() []Record {
	r.retainMu.Lock()
	defer r.retainMu.Unlock()
	r.drainLocked()
	out := make([]Record, len(r.retained))
	copy(out, r.retained)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// drainLocked moves every committed record out of the rings into
// retained. Caller holds retainMu.
func (r *Recorder) drainLocked() {
	for i := range r.shards {
		sh := &r.shards[i]
		old := sh.buf.Load()
		if old.pos.Load() == 0 {
			continue // nothing reserved this generation
		}
		sh.buf.Store(sh.spare)
		// Writers that pinned the old ring before the swap finish their
		// one record and leave; writers arriving after the swap bounce
		// off the double-check in Reserve. Quiescence is bounded by one
		// record fill.
		for old.active.Load() != 0 {
			runtime.Gosched()
		}
		for j := range old.slots {
			s := &old.slots[j]
			if s.rec.Seq != 0 {
				r.retained = append(r.retained, s.rec)
				s.rec.Seq = 0 //apollo:cowok old ring was unpublished by the swap above and quiesced on active==0; clearing Seq recycles it as the next spare
			}
		}
		old.pos.Store(0)
		sh.spare = old
	}
	if len(r.retained) > r.retainCap {
		sort.Slice(r.retained, func(i, j int) bool { return r.retained[i].Seq < r.retained[j].Seq })
		n := len(r.retained) - r.retainCap
		r.retained = append(r.retained[:0], r.retained[n:]...)
	}
}
