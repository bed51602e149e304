package stats

import (
	"fmt"
	"math"
	"sync"
)

// This file is the merge-exact histogram primitive behind the cluster
// simulator's latency and contention accounting. A LogHist holds a
// fixed number of logarithmically spaced buckets: bucket 0 collects
// everything at or below the origin, and above it each doubling of the
// value is split into BucketsPerDoubling buckets, so quantiles read
// back with ~2% relative resolution at 32 buckets per doubling.
// Counts are integers and the tracked moments (count, sum, sum of
// squares, min, max) are plain additions, so merging per-worker
// histograms is exact: the merged quantiles, mean, min, and max are
// functions of the observation multiset alone, independent of merge
// order and worker count — unlike percentiles over concatenated
// sample slices, which cost O(observations) memory to make exact.
//
// Only the observed range is stored: the counts cover a window of
// bucket indices that is allocated at the first observation and grows
// geometrically toward whichever side a new index falls on, clamped to
// the layout. A histogram whose observations stay within a doubling
// holds a few dozen counts however many buckets the layout declares,
// and an unused one holds none.

// LogHistConfig fixes a LogHist's bucket layout. Two histograms can be
// merged only when their configs are identical: the config is the wire
// format of the bucket indices.
type LogHistConfig struct {
	// Origin is the upper edge of bucket 0: every observation at or
	// below it lands there, and it is the smallest value a quantile
	// reads back. Must be positive.
	Origin float64
	// BucketsPerDoubling is how many buckets split each doubling of
	// the observed value; 32 gives 2^(1/32)-1 ≈ 2.2% resolution.
	BucketsPerDoubling int
	// Buckets is the total bucket count, bucket 0 included. The top
	// bucket is unbounded: values beyond the penultimate edge (and
	// +Inf) clamp there.
	Buckets int
}

// Validate reports whether the layout is usable.
func (c LogHistConfig) Validate() error {
	if !(c.Origin > 0) || math.IsInf(c.Origin, 1) {
		return fmt.Errorf("stats: loghist origin %v not a positive finite value", c.Origin)
	}
	if c.BucketsPerDoubling <= 0 {
		return fmt.Errorf("stats: loghist buckets-per-doubling %d not positive", c.BucketsPerDoubling)
	}
	if c.Buckets < 2 {
		return fmt.Errorf("stats: loghist bucket count %d below 2", c.Buckets)
	}
	return nil
}

// Bucket maps an observation to its bucket index. Non-finite input is
// clamped rather than propagated into the index arithmetic: NaN and
// -Inf land in bucket 0 (a nominal observation), +Inf in the top
// bucket. The index rule decomposes x/Origin into a power-of-two
// doubling (Frexp) plus a sub-doubling position against the geometric
// edges Exp2(k/BucketsPerDoubling) — no log on the observe path.
// LogHist.Observe applies the identical rule through a cached edge
// table; this per-call form recomputes the edges and is for tests and
// tools.
func (c LogHistConfig) Bucket(x float64) int {
	if math.IsNaN(x) || x <= c.Origin {
		return 0
	}
	if math.IsInf(x, 1) {
		return c.Buckets - 1
	}
	m, e := math.Frexp(x / c.Origin)
	m2 := m + m // x/Origin = m2 * 2^(e-1), m2 in [1, 2)
	k := 0
	for k+1 < c.BucketsPerDoubling && math.Exp2(float64(k+1)/float64(c.BucketsPerDoubling)) <= m2 {
		k++
	}
	return c.clampIdx(1 + (e-1)*c.BucketsPerDoubling + k)
}

func (c LogHistConfig) clampIdx(idx int) int {
	if idx >= c.Buckets {
		idx = c.Buckets - 1
	}
	if idx < 1 {
		idx = 1 // x barely above Origin can quantize below the first edge
	}
	return idx
}

// edgeTables caches edges by BucketsPerDoubling. A table is a pure
// function of its key and is never written after it is stored, so
// every histogram with that resolution shares one read-only copy.
var edgeTables sync.Map // int -> []float64

// edges returns the sub-doubling bucket edges Exp2(k/BucketsPerDoubling)
// for k = 0..BucketsPerDoubling-1 — the table Observe binary-searches
// instead of taking a logarithm per observation.
func (c LogHistConfig) edges() []float64 {
	if thr, ok := edgeTables.Load(c.BucketsPerDoubling); ok {
		return thr.([]float64)
	}
	thr := make([]float64, c.BucketsPerDoubling)
	for k := range thr {
		thr[k] = math.Exp2(float64(k) / float64(c.BucketsPerDoubling))
	}
	stored, _ := edgeTables.LoadOrStore(c.BucketsPerDoubling, thr)
	return stored.([]float64)
}

// Value returns the observation a bucket reads back as: the Origin for
// bucket 0, the bucket's upper edge otherwise.
func (c LogHistConfig) Value(idx int) float64 {
	if idx <= 0 {
		return c.Origin
	}
	return c.Origin * math.Exp2(float64(idx)/float64(c.BucketsPerDoubling))
}

// LogHist is a logarithmic histogram with exactly tracked moments.
// Observations feed integer bucket counts plus count, sum, sum of
// squares, min, and max; Quantile and Summary read everything back
// without retaining samples. The zero LogHist is not usable —
// construct with NewLogHist.
type LogHist struct {
	cfg LogHistConfig
	thr []float64 // shared sub-doubling edges (cfg.edges())
	// counts[i] is the count of bucket off+i; buckets outside the
	// window are empty. Nil until the first observation.
	counts []int
	off    int
	n      int
	sum    float64
	sumSq  float64
	min    float64
	max    float64
}

// NewLogHist returns an empty histogram with the given layout. The
// config must pass Validate; an invalid layout is a programming error
// and panics rather than silently mis-bucketing. No counts are
// allocated until the first observation or merge.
func NewLogHist(cfg LogHistConfig) *LogHist {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &LogHist{cfg: cfg, thr: cfg.edges()}
}

// minWindow is the bucket count of a window's first allocation.
const minWindow = 8

// cover widens the count window to include bucket indices [lo, hi).
// The first window is [lo, hi) centred in at least minWindow buckets;
// later ones at least double on each side that has to grow, so a
// histogram spreading over k buckets reallocates O(log k) times.
func (h *LogHist) cover(lo, hi int) {
	off, end := h.off, h.off+len(h.counts)
	switch {
	case h.counts == nil:
		pad := max(minWindow-(hi-lo), 0)
		off, end = lo-pad/2, hi+pad-pad/2
	case lo >= off && hi <= end:
		return
	default:
		n := end - off
		if lo < off {
			off = min(lo, off-n)
		}
		if hi > end {
			end = max(hi, end+n)
		}
	}
	off, end = max(off, 0), min(end, h.cfg.Buckets)
	counts := make([]int, end-off)
	if h.counts != nil {
		copy(counts[h.off-off:], h.counts)
	}
	h.counts, h.off = counts, off
}

// Config returns the histogram's bucket layout.
func (h *LogHist) Config() LogHistConfig { return h.cfg }

// N returns the number of observations recorded.
func (h *LogHist) N() int { return h.n }

// Observe records one observation. Finite values contribute their
// exact value to the tracked moments (even when their bucket clamps at
// the top edge); non-finite values are clamped first — NaN and -Inf to
// the Origin, +Inf to the top bucket's edge — so the moments stay
// finite and merge-exact.
func (h *LogHist) Observe(x float64) {
	v := x
	switch {
	case math.IsNaN(v) || math.IsInf(v, -1):
		v = h.cfg.Origin
	case math.IsInf(v, 1):
		v = h.cfg.Value(h.cfg.Buckets - 1)
	}
	idx := h.bucket(x)
	if uint(idx-h.off) >= uint(len(h.counts)) {
		h.cover(idx, idx+1)
	}
	h.counts[idx-h.off]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.sumSq += v * v
}

// bucket is cfg.Bucket over the cached edge table: identical indices
// (both walk the same Exp2 edges), but a Frexp plus a short binary
// search instead of recomputing the edges per call.
func (h *LogHist) bucket(x float64) int {
	if math.IsNaN(x) || x <= h.cfg.Origin {
		return 0
	}
	if math.IsInf(x, 1) {
		return h.cfg.Buckets - 1
	}
	m, e := math.Frexp(x / h.cfg.Origin)
	m2 := m + m
	lo, hi := 0, len(h.thr)
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.thr[mid] <= m2 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return h.cfg.clampIdx(1 + (e-1)*h.cfg.BucketsPerDoubling + lo)
}

// Merge folds another histogram into h. Both must share the same
// layout; merging is integer bucket addition plus moment addition, so
// the result is independent of merge grouping (associative) and a
// merge of per-worker histograms equals observing the union. h's
// window widens to cover the source's. A nil or empty source is a
// no-op.
func (h *LogHist) Merge(o *LogHist) error {
	if o == nil || o.n == 0 {
		return nil
	}
	if o.cfg != h.cfg {
		return fmt.Errorf("stats: loghist layout mismatch %+v vs %+v", h.cfg, o.cfg)
	}
	h.cover(o.off, o.off+len(o.counts))
	dst := h.counts[o.off-h.off:]
	for i, c := range o.counts {
		dst[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	h.sumSq += o.sumSq
	return nil
}

// Quantile returns the value at quantile q (0 < q ≤ 1): the upper edge
// of the bucket holding the rank-⌈q·n⌉ observation, clamped into the
// exactly tracked [min, max] so no quantile reads outside the observed
// range. An empty histogram returns the Origin.
func (h *LogHist) Quantile(q float64) float64 {
	if h.n == 0 {
		return h.cfg.Origin
	}
	rank := int(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	cum := 0
	v := h.cfg.Value(h.cfg.Buckets - 1)
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v = h.cfg.Value(h.off + i)
			break
		}
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// Summary renders the histogram as the package's standard descriptive
// summary. N, Mean, Min, and Max are exact (tracked moments); StdDev
// is the population deviation from the tracked sum of squares; the
// percentiles are bucket-resolution Quantile reads.
func (h *LogHist) Summary() Summary {
	if h.n == 0 {
		return Summary{}
	}
	mean := h.sum / float64(h.n)
	variance := h.sumSq/float64(h.n) - mean*mean
	if variance < 0 {
		variance = 0 // float cancellation on near-constant samples
	}
	return Summary{
		N:      h.n,
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		Min:    h.min,
		P5:     h.Quantile(0.05),
		P25:    h.Quantile(0.25),
		Median: h.Quantile(0.50),
		P75:    h.Quantile(0.75),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
		Max:    h.max,
	}
}
