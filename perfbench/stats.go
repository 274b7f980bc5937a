package main

import (
	"math"
	"sort"
	"time"
)

// series collects one timing or ratio series. Per-launch series can run
// to millions of values, so a series stops growing at cap (0 = no cap).
type series struct {
	v   []float64
	cap int
}

func newSeries(cap int) *series { return &series{cap: cap} }

func (s *series) add(x float64) {
	if s.cap == 0 || len(s.v) < s.cap {
		s.v = append(s.v, x)
	}
}

func (s *series) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *series) n() int { return len(s.v) }

func (s *series) sum() float64 {
	var t float64
	for _, x := range s.v {
		t += x
	}
	return t
}

// pct returns the p-th percentile (0 < p < 100) by linear interpolation
// between closest ranks, or 0 for an empty series.
func (s *series) pct(p float64) float64 {
	return percentile(s.v, p)
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics together with the sample count
// behind each one (printed on the provenance line, not the result line).
type report struct {
	metrics map[string]metric
	samples map[string]int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *report) set(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.samples[name] = n
}

// ratio divides, returning 0 when the base is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowed is a timed series split into consecutive wall-clock windows.
// On the shared 2-vCPU host these figures were taken on, the same code
// alternates between a fast and a slow mode (about 1.6x) for seconds at
// a time, with nothing else running in the VM; the share of slow seconds
// changes from run to run and moves a plain median between the modes.
// slow reports a percentile of each window and takes the 90th percentile
// over windows: the program's figure in the run's slowest tenth of
// seconds, which every run observed had in the slow mode. Every window
// runs the same code, so a change to the program moves every window
// alike.
type windowed struct {
	span  time.Duration
	start time.Time
	all   *series
	wins  [][]float64
}

func newWindowed(span time.Duration) *windowed {
	return &windowed{span: span, all: newSeries(0)}
}

// split makes the next sample open a new window.
func (w *windowed) split() { w.start = time.Time{} }

// add records x, observed at now.
func (w *windowed) add(now time.Time, x float64) {
	if len(w.wins) == 0 || now.Sub(w.start) >= w.span {
		w.wins = append(w.wins, nil)
		w.start = now
	}
	w.wins[len(w.wins)-1] = append(w.wins[len(w.wins)-1], x)
	w.all.add(x)
}

// minWindow is the fewest samples a window needs to count.
const minWindow = 10

// slow returns the 90th percentile over windows of each window's p-th
// percentile.
func (w *windowed) slow(p float64) float64 {
	var per []float64
	for _, win := range w.wins {
		if len(win) >= minWindow {
			per = append(per, percentile(win, p))
		}
	}
	if len(per) == 0 {
		return w.all.pct(p)
	}
	return percentile(per, 90)
}
