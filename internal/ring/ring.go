// Package ring is the bounded lock-free queue under the telemetry and
// loop-event capture paths: a Vyukov MPMC ring whose per-slot sequence
// tickets let producers and consumers claim slots by one CAS each.
//
// Both sides work in place: a producer fills a slot between Reserve and
// Publish, a consumer reads it between Acquire and Release, so a slot
// may own preallocated memory that no consumer copy ever aliases. A
// full ring keeps its oldest values and drops (and counts) new ones.
package ring

import "sync/atomic"

// Ticket is a claimed position, returned by Reserve or Acquire and
// handed back to Publish or Release.
type Ticket uint64

// slot is one ring cell: its sequence ticket and its value.
type slot[T any] struct {
	seq atomic.Uint64
	val T
	_   [4]uint64 // pad to keep neighboring seq words off one cache line
}

// Ring is a bounded multi-producer multi-consumer queue of T. The
// read-only fields and each counter sit on cache lines of their own, so
// a producer's CAS or drop count does not evict what every other
// caller reads.
type Ring[T any] struct {
	mask    uint64
	slots   []slot[T]
	_       [64]byte
	enqueue atomic.Uint64
	_       [56]byte
	dequeue atomic.Uint64
	_       [56]byte
	dropped atomic.Uint64
}

// New returns a ring holding capacity values, rounded up to a power of
// two (at least 1). init, when non-nil, runs once on every slot's value,
// so a slot can own storage the producers fill in place.
func New[T any](capacity int, init func(*T)) *Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{mask: uint64(n - 1), slots: make([]slot[T], n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
		if init != nil {
			init(&r.slots[i].val)
		}
	}
	return r
}

// Dropped returns how many Reserve calls found the ring full.
func (r *Ring[T]) Dropped() uint64 { return r.dropped.Load() }

// Reserve claims the next free slot for writing. The caller fills *v
// and then calls Publish(t). When the ring is full it counts a drop and
// returns ok == false; it never blocks.
//
//apollo:hotpath
func (r *Ring[T]) Reserve() (v *T, t Ticket, ok bool) {
	for {
		pos := r.enqueue.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.enqueue.CompareAndSwap(pos, pos+1) {
				return &s.val, Ticket(pos), true
			}
		case seq < pos:
			// The consumer has not released this slot yet: the ring
			// is full.
			r.dropped.Add(1)
			return nil, 0, false
		default:
			// Another producer advanced enqueue between our loads;
			// retry with the fresh position.
		}
	}
}

// Publish hands a slot claimed by Reserve to the consumers.
//
//apollo:hotpath
func (r *Ring[T]) Publish(t Ticket) {
	r.slots[uint64(t)&r.mask].seq.Store(uint64(t) + 1)
}

// Acquire claims the oldest published value for reading. The caller
// reads *v and then calls Release(t); until then no producer touches
// the slot. It returns ok == false when the ring is empty.
//
//apollo:hotpath
func (r *Ring[T]) Acquire() (v *T, t Ticket, ok bool) {
	for {
		pos := r.dequeue.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if r.dequeue.CompareAndSwap(pos, pos+1) {
				return &s.val, Ticket(pos), true
			}
		case seq <= pos:
			return nil, 0, false
		default:
			// Another consumer advanced dequeue between our loads.
		}
	}
}

// Release frees a slot claimed by Acquire for the producer one lap
// later.
//
//apollo:hotpath
func (r *Ring[T]) Release(t Ticket) {
	r.slots[uint64(t)&r.mask].seq.Store(uint64(t) + r.mask + 1)
}
