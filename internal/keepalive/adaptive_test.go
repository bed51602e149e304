package keepalive

// The tests in this file are the old PredictiveWarmer suite, ported to
// the Adaptive decider that subsumed it: same histogram, same plan
// semantics, now exercised through the Decider surface.

import (
	"testing"
	"time"

	"slscost/internal/stats"
)

func newAdaptive(t *testing.T) *Adaptive {
	t.Helper()
	a, err := NewAdaptive(4*time.Hour, time.Minute, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(time.Hour, 0, time.Minute); err == nil {
		t.Error("zero bin width accepted")
	}
	if _, err := NewAdaptive(time.Second, time.Minute, time.Minute); err == nil {
		t.Error("max below bin accepted")
	}
	if _, err := NewAdaptive(time.Hour, time.Minute, -1); err == nil {
		t.Error("negative fallback accepted")
	}
}

func TestPlanFallsBackWithoutData(t *testing.T) {
	a := newAdaptive(t)
	pre, keep := a.Plan()
	if pre != 0 || keep != 10*time.Minute {
		t.Errorf("cold-start plan = (%v, %v), want static fallback", pre, keep)
	}
	// The decider surface agrees: an untrained Window is the fallback,
	// and it is not counted as learned.
	if w := a.Window(nil, 1); w != 10*time.Minute {
		t.Errorf("untrained Window = %v, want fallback", w)
	}
	if st := a.Stats(); st.Decisions != 1 || st.Learned != 0 {
		t.Errorf("stats = %+v, want 1 unlearned decision", st)
	}
}

// TestRegularTrafficBecomesWarm: traffic every 10 minutes is always cold
// under AWS's 300–360 s window; the adaptive decider learns the interval
// and serves it warm.
func TestRegularTrafficBecomesWarm(t *testing.T) {
	a := newAdaptive(t)
	interval := 10 * time.Minute

	// Static AWS policy: certainly cold at this interval.
	if p := ColdStartProbability(AWS, interval, 1, 200, 1); p != 1 {
		t.Fatalf("AWS at 10 min idle should always be cold, got %v", p)
	}

	// Training phase with slight jitter.
	rng := stats.NewRand(3)
	for i := 0; i < 40; i++ {
		jitter := time.Duration(rng.Uniform(-30, 30)) * time.Second
		a.ObserveIdle(interval + jitter)
	}
	cold := 0
	const probes = 200
	for i := 0; i < probes; i++ {
		jitter := time.Duration(rng.Uniform(-30, 30)) * time.Second
		if a.WouldBeCold(interval + jitter) {
			cold++
		}
	}
	if rate := float64(cold) / probes; rate > 0.02 {
		t.Errorf("adaptive cold rate = %.3f, want ≈0", rate)
	}
	// And the pre-warm window releases resources for most of the idle
	// period: held seconds well below the full 10-minute gap.
	if held := a.IdleResourceSeconds(); held > 0.6*interval.Seconds() {
		t.Errorf("held %v s of a %v s gap: pre-warming saves little", held, interval.Seconds())
	}
	// The trained decider's window covers the jittered gap and counts as
	// a learned decision.
	if w := a.Window(nil, 1); w < interval+30*time.Second {
		t.Errorf("trained Window = %v, shorter than the observed gaps", w)
	}
	if st := a.Stats(); st.Learned != st.Decisions {
		t.Errorf("stats = %+v, want every decision learned", st)
	}
}

func TestUnpredictableTrafficFallsBack(t *testing.T) {
	a := newAdaptive(t)
	// Most gaps beyond the histogram range: overflow-dominated.
	for i := 0; i < 40; i++ {
		a.ObserveIdle(10 * time.Hour)
	}
	pre, keep := a.Plan()
	if pre != 0 || keep != 10*time.Minute {
		t.Errorf("overflow-dominated plan = (%v, %v), want fallback", pre, keep)
	}
}

func TestObserveIdleIgnoresNegative(t *testing.T) {
	a := newAdaptive(t)
	a.ObserveIdle(-time.Minute)
	if a.Samples() != 0 {
		t.Error("negative idle recorded")
	}
	// The observation still counts in the telemetry (the fleet made the
	// call), it just doesn't poison the histogram.
	if st := a.Stats(); st.Observations != 1 {
		t.Errorf("observations = %d, want 1", st.Observations)
	}
}

func TestWouldBeColdEdges(t *testing.T) {
	a := newAdaptive(t)
	for i := 0; i < 40; i++ {
		a.ObserveIdle(10 * time.Minute)
	}
	pre, keep := a.Plan()
	if pre <= 0 || keep <= pre {
		t.Fatalf("plan = (%v, %v)", pre, keep)
	}
	// An arrival before the pre-warm completes is cold (sandbox released).
	if !a.WouldBeCold(pre / 2) {
		t.Error("early arrival should be cold")
	}
	// An arrival far past the window is cold again.
	if !a.WouldBeCold(keep + time.Hour) {
		t.Error("late arrival should be cold")
	}
	// Inside the window: warm.
	if a.WouldBeCold((pre + keep) / 2) {
		t.Error("in-window arrival should be warm")
	}
}

func TestQuantileBinEmpty(t *testing.T) {
	a := newAdaptive(t)
	if a.quantileBin(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestHistogramWindowing: once maxSamples accumulate every bin halves,
// so a shifted traffic pattern takes over the plan instead of being
// averaged against the stale one forever.
func TestHistogramWindowing(t *testing.T) {
	a := newAdaptive(t)
	a.maxSamples = 64
	for i := 0; i < 200; i++ {
		a.ObserveIdle(10 * time.Minute)
	}
	if a.Samples() >= 64 {
		t.Fatalf("samples = %d, want halved below cap", a.Samples())
	}
	// Shift the workload: 30-minute gaps. The window must follow within
	// a bounded number of observations.
	for i := 0; i < 200; i++ {
		a.ObserveIdle(30 * time.Minute)
	}
	if _, keep := a.Plan(); keep < 30*time.Minute {
		t.Errorf("plan after shift = %v, want ≥ 30m", keep)
	}
}

// quantileBin is the linear-scan reference for the tracked quantile
// cursors: the bin index at cumulative fraction q, scanning every bin
// up to and including the overflow bin.
func (a *Adaptive) quantileBin(q float64) int {
	if a.total == 0 {
		return 0
	}
	want := int(q * float64(a.total))
	acc := 0
	for i := 0; i <= a.top; i++ {
		acc += a.count(i)
		if acc > want {
			return i
		}
	}
	return a.top
}

// refAdaptive is the full-array reference histogram: every bin of the
// range allocated up front, the last one the overflow bin, halved in
// place at the windowing cap.
type refAdaptive struct {
	bins  []int
	total int
}

func (r *refAdaptive) observe(a *Adaptive, gap time.Duration) {
	if gap < 0 {
		return
	}
	i := min(int(gap/a.binWidth), len(r.bins)-1)
	r.bins[i]++
	r.total++
	if r.total >= a.maxSamples {
		r.total = 0
		for j, c := range r.bins {
			r.bins[j] = c / 2
			r.total += r.bins[j]
		}
	}
}

// TestAdaptiveTrackedQuantilesMatchScan feeds random idle-gap streams
// (regular periods with jitter, uniform spreads, gaps at and past
// maxIdle, negative gaps, and shifts between them) through deciders of
// several shapes, long enough to halve many times. After every
// observation the lazily grown bins must equal the full-array
// reference, both tracked quantile bins must equal the linear scan,
// and Plan must equal the plan computed from the scanned bins.
func TestAdaptiveTrackedQuantilesMatchScan(t *testing.T) {
	shapes := []struct {
		maxIdle, bin time.Duration
		maxSamples   int
	}{
		{2 * time.Hour, 15 * time.Second, 4096}, // the spec default
		{10 * time.Minute, time.Minute, 4096},   // overflow-heavy
		{2 * time.Hour, 15 * time.Second, 64},   // halving to (nearly) empty
		{time.Minute, time.Minute, 100},         // in-range bin 0 and overflow only
	}
	for si, sh := range shapes {
		a, err := NewAdaptive(sh.maxIdle, sh.bin, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		a.maxSamples = sh.maxSamples
		ref := refAdaptive{bins: make([]int, int(sh.maxIdle/sh.bin)+1)}
		rng := stats.NewRand(uint64(90 + si))
		period := time.Duration(rng.Uniform(0, 1.2) * float64(sh.maxIdle))
		for step := 0; step < 30000; step++ {
			if step%2500 == 0 { // shift the traffic pattern
				period = time.Duration(rng.Uniform(0, 1.2) * float64(sh.maxIdle))
			}
			var gap time.Duration
			switch k := rng.Uint64() % 20; {
			case k == 0:
				gap = -time.Second
			case k == 1:
				gap = sh.maxIdle
			case k == 2:
				gap = sh.maxIdle * time.Duration(1+rng.Uint64()%100)
			case k < 8:
				gap = time.Duration(rng.Uniform(0, 1.3) * float64(sh.maxIdle))
			default:
				gap = period + time.Duration(rng.Uniform(-0.05, 0.05)*float64(sh.maxIdle))
			}
			a.ObserveIdle(gap)
			ref.observe(a, gap)

			if a.Samples() != ref.total {
				t.Fatalf("shape %d step %d: samples %d, reference %d", si, step, a.Samples(), ref.total)
			}
			for i, c := range ref.bins {
				if got := a.count(i); got != c {
					t.Fatalf("shape %d step %d: bin %d holds %d, reference %d", si, step, i, got, c)
				}
			}
			if len(a.bins) > a.top {
				t.Fatalf("shape %d step %d: %d bins allocated for %d in-range bins", si, step, len(a.bins), a.top)
			}
			lo, hi := a.quantileBin(0.05), a.quantileBin(0.99)
			if a.lo.bin != lo || a.hi.bin != hi {
				t.Fatalf("shape %d step %d: tracked bins (%d, %d), scan (%d, %d)", si, step, a.lo.bin, a.hi.bin, lo, hi)
			}
			wantPre, wantKeep := time.Duration(0), a.fallback
			if a.total >= a.minSamples && float64(a.overflow) <= 0.5*float64(a.total) {
				wantPre = max(time.Duration(float64(lo)*(1-a.headroom)*float64(a.binWidth)), 0)
				wantKeep = time.Duration(float64(hi+1) * (1 + a.headroom) * float64(a.binWidth))
			}
			if pre, keep := a.Plan(); pre != wantPre || keep != wantKeep {
				t.Fatalf("shape %d step %d: Plan (%v, %v), scan (%v, %v)", si, step, pre, keep, wantPre, wantKeep)
			}
		}
	}
}

// TestAdaptiveBinsGrowWithObservations pins the storage rule: no bins
// before an observation, bins up to the longest in-range gap after,
// and an overflow gap allocates no bin at all.
func TestAdaptiveBinsGrowWithObservations(t *testing.T) {
	a, err := NewAdaptive(2*time.Hour, 15*time.Second, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if a.bins != nil {
		t.Fatalf("new decider holds %d bins", len(a.bins))
	}
	a.ObserveIdle(10 * time.Hour)
	if a.bins != nil || a.overflow != 1 {
		t.Fatalf("overflow gap: %d bins, overflow %d; want no bins, overflow 1", len(a.bins), a.overflow)
	}
	for i := 0; i < 100; i++ {
		a.ObserveIdle(time.Duration(i%10) * 10 * time.Second)
	}
	if len(a.bins) != 7 { // 90 s / 15 s = bin 6
		t.Errorf("gaps up to 90 s hold %d bins, want 7", len(a.bins))
	}
}
