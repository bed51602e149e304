package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// A tail read from fewer samples is one or two unlucky operations, not a
// property of the system.
const minBeyond = 10

// pct is a nearest-rank percentile together with the sample it was read
// from, so every printed timing carries its sample count.
type pct struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

func (p pct) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", p.P, p.Value, p.N, p.Beyond)
}

// percentile returns the nearest-rank p-th percentile of xs. It refuses
// a percentile with fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (pct, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return pct{}, fmt.Errorf("percentile p%g of %d samples is undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minBeyond {
		return pct{}, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pct{P: p, Value: s[rank-1], N: n, Beyond: n - rank}, nil
}

// median is the middle of xs (the mean of the two middle values for an
// even count); it is used for small repeat counts such as set-up runs,
// where no tail is claimed.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations attempted and failed. A refused operation
// (a rejected submit, an HTTP error) is both attempted and failed, like
// one that ran and went wrong; so is a failed correctness check.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// note records one attempted operation and returns err unchanged.
func (t *tally) note(what string, err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, what+": "+err.Error())
		}
	}
	return err
}

func (t *tally) errorRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// readMetric reads one runtime/metrics uint64 value.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
)

// heapSampler records the live heap at the end of every collection.
// The live-heap figure only changes when a collection ends, so polling
// faster than collections happen sees every value it takes.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	lives []float64
	ats   []time.Time
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeapMetric}, {Name: gcCyclesMetric}}
		metrics.Read(s)
		cycles := s[1].Value.Uint64()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[1].Value.Uint64(); c != cycles {
				cycles = c
				h.lives = append(h.lives, float64(s[0].Value.Uint64()))
				h.ats = append(h.ats, time.Now())
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the high-water mark of the live
// heap: the 90th percentile of its per-collection values, so that one
// collection ending at an unlucky instant does not set it. A non-zero
// until ends the window: later collections are not counted.
func (h *heapSampler) finish(until time.Time) uint64 {
	close(h.stop)
	<-h.done
	lives := h.lives
	if !until.IsZero() {
		n := 0
		for n < len(h.ats) && !h.ats[n].After(until) {
			n++
		}
		lives = lives[:n]
	}
	if len(lives) == 0 {
		return readMetric(liveHeapMetric)
	}
	s := append([]float64(nil), lives...)
	sort.Float64s(s)
	return uint64(s[int(math.Ceil(0.9*float64(len(s))))-1])
}

// baselineHeap collects garbage and returns the live heap that remains:
// the inputs set-up built, which peak_heap_mb does not count. It collects
// twice: the first collection only moves sync.Pool contents to the
// pools' victim caches, which keep them live until the second.
func baselineHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMetric(liveHeapMetric)
}
