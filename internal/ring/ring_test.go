package ring

import (
	"sync"
	"testing"
)

func TestRoundTripFIFO(t *testing.T) {
	r := New[int](3, nil) // rounded up to 4 slots
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < 4; i++ {
			v, tk, ok := r.Reserve()
			if !ok {
				t.Fatalf("lap %d: Reserve %d failed on a ring with room", lap, i)
			}
			*v = lap*10 + i
			r.Publish(tk)
		}
		if _, _, ok := r.Reserve(); ok {
			t.Fatalf("lap %d: Reserve succeeded on a full ring", lap)
		}
		for i := 0; i < 4; i++ {
			v, tk, ok := r.Acquire()
			if !ok || *v != lap*10+i {
				t.Fatalf("lap %d: Acquire %d = %v, %v; want %d", lap, i, v, ok, lap*10+i)
			}
			r.Release(tk)
		}
		if _, _, ok := r.Acquire(); ok {
			t.Fatalf("lap %d: Acquire succeeded on an empty ring", lap)
		}
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
}

// A reserved but unpublished slot is invisible to the consumer and
// blocks the values behind it, so readers never see a half-written value.
func TestUnpublishedSlotHidden(t *testing.T) {
	r := New[int](4, nil)
	_, first, _ := r.Reserve()
	v, second, _ := r.Reserve()
	*v = 2
	r.Publish(second)
	if _, _, ok := r.Acquire(); ok {
		t.Fatal("Acquire returned a value behind an unpublished slot")
	}
	r.Publish(first)
	if _, tk, ok := r.Acquire(); !ok {
		t.Fatal("Acquire found nothing after Publish")
	} else {
		r.Release(tk)
	}
}

// init runs once per slot, and a slot's storage survives laps: the
// value a producer fills is the one the slot was built with.
func TestInitOwnsSlotStorage(t *testing.T) {
	built := 0
	r := New(2, func(row *[]float64) { built++; *row = make([]float64, 3) })
	if built != 2 {
		t.Fatalf("init ran %d times, want 2", built)
	}
	for i := 0; i < 5; i++ {
		row, tk, _ := r.Reserve()
		(*row)[2] = float64(i)
		r.Publish(tk)
		got, tk, _ := r.Acquire()
		if len(*got) != 3 || (*got)[2] != float64(i) {
			t.Fatalf("lap %d: row %v", i, *got)
		}
		r.Release(tk)
	}
}

func TestZeroAlloc(t *testing.T) {
	r := New[[4]uint64](8, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		v, tk, ok := r.Reserve()
		if ok {
			v[0] = 1
			r.Publish(tk)
		}
		if _, tk, ok := r.Acquire(); ok {
			r.Release(tk)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reserve/Publish/Acquire/Release allocated %v times per run", allocs)
	}
}

// pair is a two-word value: a torn read shows as b != ^a.
type pair struct{ a, b uint64 }

// TestStress runs N producers against one consumer on a small ring.
// Every value a producer published is consumed exactly once, every
// value it failed to reserve is counted as dropped, and no value is
// read torn.
func TestStress(t *testing.T) {
	const producers, perProducer = 4, 20000
	r := New[pair](64, nil)
	var published [producers]uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v, tk, ok := r.Reserve()
				if !ok {
					continue
				}
				id := uint64(p)<<32 | uint64(i)
				v.a, v.b = id, ^id
				r.Publish(tk)
				published[p]++
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	seen := make(map[uint64]bool, producers*perProducer)
	consume := func() bool {
		v, tk, ok := r.Acquire()
		if !ok {
			return false
		}
		a, b := v.a, v.b
		r.Release(tk)
		if b != ^a {
			t.Fatalf("torn value: a=%x b=%x", a, b)
		}
		if seen[a] {
			t.Fatalf("value %x consumed twice", a)
		}
		seen[a] = true
		return true
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			consume()
		}
	}
	for consume() {
	}

	var total uint64
	for _, n := range published {
		total += n
	}
	if uint64(len(seen)) != total {
		t.Fatalf("consumed %d values, producers published %d", len(seen), total)
	}
	if got := total + r.Dropped(); got != producers*perProducer {
		t.Fatalf("published %d + dropped %d = %d, want %d attempts", total, r.Dropped(), got, producers*perProducer)
	}
}
