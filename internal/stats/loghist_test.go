package stats

import (
	"math"
	"testing"
)

func testLogHistConfig() LogHistConfig {
	return LogHistConfig{Origin: 1, BucketsPerDoubling: 32, Buckets: 256}
}

// Regression for the unguarded float→index conversion this type
// replaced: int(math.Log2(NaN)*32) is a huge negative number, and the
// old observe path indexed the bucket array with it. Non-finite input
// must clamp, not panic.
func TestLogHistNonFiniteObservations(t *testing.T) {
	cfg := testLogHistConfig()
	if got := cfg.Bucket(math.NaN()); got != 0 {
		t.Errorf("Bucket(NaN) = %d, want 0", got)
	}
	if got := cfg.Bucket(math.Inf(1)); got != cfg.Buckets-1 {
		t.Errorf("Bucket(+Inf) = %d, want %d", got, cfg.Buckets-1)
	}
	if got := cfg.Bucket(math.Inf(-1)); got != 0 {
		t.Errorf("Bucket(-Inf) = %d, want 0", got)
	}

	h := NewLogHist(cfg)
	h.Observe(math.NaN())  // would have panicked with index out of range
	h.Observe(math.Inf(1)) // likewise through the huge positive index
	h.Observe(math.Inf(-1))
	h.Observe(2)
	if h.N() != 4 {
		t.Fatalf("N = %d, want 4", h.N())
	}
	s := h.Summary()
	for name, v := range map[string]float64{
		"mean": s.Mean, "min": s.Min, "max": s.Max, "p99": s.P99,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v after non-finite observations, want finite", name, v)
		}
	}
	if s.Min != cfg.Origin {
		t.Errorf("min = %v, want clamped origin %v", s.Min, cfg.Origin)
	}
	if want := cfg.Value(cfg.Buckets - 1); s.Max != want {
		t.Errorf("max = %v, want top edge %v", s.Max, want)
	}
}

func TestLogHistBucketValueRoundTrip(t *testing.T) {
	cfg := testLogHistConfig()
	if got := cfg.Bucket(0.5); got != 0 {
		t.Errorf("Bucket(0.5) = %d, want 0 (at or below origin)", got)
	}
	if got := cfg.Bucket(1); got != 0 {
		t.Errorf("Bucket(1) = %d, want 0 (origin is bucket 0's edge)", got)
	}
	if got := cfg.Bucket(1e12); got != cfg.Buckets-1 {
		t.Errorf("Bucket(1e12) = %d, want top bucket %d", got, cfg.Buckets-1)
	}
	if got := cfg.Value(0); got != cfg.Origin {
		t.Errorf("Value(0) = %v, want origin %v", got, cfg.Origin)
	}
	// A value read back from its own bucket must not move to a lower
	// bucket: Value(i) is the bucket's upper edge.
	for _, x := range []float64{1.0001, 1.5, 2, 3.7, 100, 250} {
		b := cfg.Bucket(x)
		if v := cfg.Value(b); v < x*(1-1e-12) {
			t.Errorf("Value(Bucket(%v)) = %v below the observation", x, v)
		}
		if b > 0 && cfg.Value(b-1) > x {
			t.Errorf("observation %v below its bucket's lower edge %v", x, cfg.Value(b-1))
		}
	}
}

// Merging per-worker histograms must equal observing the union, for
// every tracked quantity — the property that makes cluster-wide
// quantiles independent of worker count.
func TestLogHistMergeExact(t *testing.T) {
	cfg := testLogHistConfig()
	r := NewRand(99)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = math.Exp(r.Uniform(0, 5)) // spans ~1–148, multiple doublings
	}

	for _, workers := range []int{1, 4, 8} {
		parts := make([]*LogHist, workers)
		for i := range parts {
			parts[i] = NewLogHist(cfg)
		}
		for i, x := range xs {
			parts[i%workers].Observe(x)
		}
		merged := NewLogHist(cfg)
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		whole := NewLogHist(cfg)
		for _, x := range xs {
			whole.Observe(x)
		}
		if merged.N() != whole.N() {
			t.Fatalf("workers=%d: N %d != %d", workers, merged.N(), whole.N())
		}
		for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			if a, b := merged.Quantile(q), whole.Quantile(q); a != b {
				t.Errorf("workers=%d: Quantile(%v) %v != %v", workers, q, a, b)
			}
		}
		ms, ws := merged.Summary(), whole.Summary()
		if ms.Min != ws.Min || ms.Max != ws.Max {
			t.Errorf("workers=%d: min/max drifted: %v/%v vs %v/%v",
				workers, ms.Min, ms.Max, ws.Min, ws.Max)
		}
		// Mean differs only by float summation order across shards; the
		// full report path merges in a fixed order, so there it is exact.
		if math.Abs(ms.Mean-ws.Mean) > 1e-9*ws.Mean {
			t.Errorf("workers=%d: mean drifted: %v vs %v", workers, ms.Mean, ws.Mean)
		}
	}
}

func TestLogHistQuantileWithinBucketResolution(t *testing.T) {
	cfg := testLogHistConfig()
	h := NewLogHist(cfg)
	r := NewRand(7)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(r.Uniform(0, 4))
		h.Observe(xs[i])
	}
	res := math.Exp2(1/float64(cfg.BucketsPerDoubling)) - 1 // ~2.2%
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := Percentile(xs, q*100)
		got := h.Quantile(q)
		if got < exact*(1-res) || got > exact*(1+res) {
			t.Errorf("Quantile(%v) = %v outside ±%.1f%% of exact %v", q, got, res*100, exact)
		}
	}
	// Quantiles never read outside the exactly tracked range.
	if h.Quantile(1) != Max(xs) {
		t.Errorf("Quantile(1) = %v, want exact max %v", h.Quantile(1), Max(xs))
	}
	if h.Quantile(0) < Min(xs) {
		t.Errorf("Quantile(0) = %v below exact min %v", h.Quantile(0), Min(xs))
	}
}

func TestLogHistEmptyAndMismatch(t *testing.T) {
	cfg := testLogHistConfig()
	h := NewLogHist(cfg)
	if got := h.Quantile(0.99); got != cfg.Origin {
		t.Errorf("empty Quantile = %v, want origin %v", got, cfg.Origin)
	}
	if s := h.Summary(); s != (Summary{}) {
		t.Errorf("empty Summary = %+v, want zero", s)
	}
	if err := h.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v, want no-op", err)
	}

	other := NewLogHist(LogHistConfig{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280})
	other.Observe(5)
	if err := h.Merge(other); err == nil {
		t.Error("merging mismatched layouts succeeded")
	}

	for _, bad := range []LogHistConfig{
		{Origin: 0, BucketsPerDoubling: 32, Buckets: 256},
		{Origin: -1, BucketsPerDoubling: 32, Buckets: 256},
		{Origin: math.NaN(), BucketsPerDoubling: 32, Buckets: 256},
		{Origin: 1, BucketsPerDoubling: 0, Buckets: 256},
		{Origin: 1, BucketsPerDoubling: 32, Buckets: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", bad)
		}
	}
}

// refHist is the full-array reference for LogHist: every bucket of
// the layout allocated up front, indices from the per-call
// LogHistConfig.Bucket rule, and the moments kept with the same
// arithmetic. The windowed LogHist must read back bit-identically.
type refHist struct {
	cfg                 LogHistConfig
	counts              []int
	n                   int
	sum, sumSq, lo, top float64
}

func newRefHist(cfg LogHistConfig) *refHist {
	return &refHist{cfg: cfg, counts: make([]int, cfg.Buckets)}
}

func (r *refHist) observe(x float64) {
	v := x
	switch {
	case math.IsNaN(v) || math.IsInf(v, -1):
		v = r.cfg.Origin
	case math.IsInf(v, 1):
		v = r.cfg.Value(r.cfg.Buckets - 1)
	}
	r.counts[r.cfg.Bucket(x)]++
	r.addMoments(1, v, v, v, v*v)
}

func (r *refHist) addMoments(n int, lo, top, sum, sumSq float64) {
	if r.n == 0 || lo < r.lo {
		r.lo = lo
	}
	if r.n == 0 || top > r.top {
		r.top = top
	}
	r.n += n
	r.sum += sum
	r.sumSq += sumSq
}

func (r *refHist) merge(o *refHist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.addMoments(o.n, o.lo, o.top, o.sum, o.sumSq)
}

func (r *refHist) quantile(q float64) float64 {
	if r.n == 0 {
		return r.cfg.Origin
	}
	rank := min(max(int(math.Ceil(q*float64(r.n))), 1), r.n)
	cum := 0
	for i, c := range r.counts {
		if cum += c; cum >= rank {
			return min(max(r.cfg.Value(i), r.lo), r.top)
		}
	}
	panic("counts do not sum to n")
}

func (r *refHist) summary() Summary {
	if r.n == 0 {
		return Summary{}
	}
	mean := r.sum / float64(r.n)
	return Summary{
		N: r.n, Mean: mean, StdDev: math.Sqrt(max(r.sumSq/float64(r.n)-mean*mean, 0)),
		Min: r.lo, P5: r.quantile(0.05), P25: r.quantile(0.25), Median: r.quantile(0.5),
		P75: r.quantile(0.75), P95: r.quantile(0.95), P99: r.quantile(0.99), Max: r.top,
	}
}

// TestLogHistMatchesReference drives windowed histograms and their
// full-array references through the same random Observe/Merge
// sequence. Each histogram observes around its own home doubling, so
// merges see disjoint, nested, and overlapping windows; the stream
// mixes in NaN, ±Inf, values at or below the origin and values past
// the top edge, and merges from nil and empty sources.
func TestLogHistMatchesReference(t *testing.T) {
	layouts := []LogHistConfig{
		testLogHistConfig(),
		{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280},
		{Origin: 0.5, BucketsPerDoubling: 4, Buckets: 24},
	}
	qs := []float64{0, 0.001, 0.05, 0.5, 0.9, 0.99, 0.999, 1}
	for li, cfg := range layouts {
		r := NewRand(uint64(41 + li))
		const k = 5
		hs := make([]*LogHist, k)
		refs := make([]*refHist, k)
		homes := make([]float64, k) // log2(x/Origin) each histogram centers on
		doublings := float64(cfg.Buckets) / float64(cfg.BucketsPerDoubling)
		for i := range hs {
			hs[i], refs[i] = NewLogHist(cfg), newRefHist(cfg)
			homes[i] = r.Uniform(-1, doublings+1)
		}
		for step := 0; step < 20000; step++ {
			i := int(r.Uint64() % k)
			switch op := r.Uint64() % 100; {
			case op < 3: // merge from a nil source
				if err := hs[i].Merge(nil); err != nil {
					t.Fatal(err)
				}
			case op < 8: // merge another histogram (possibly empty)
				j := int(r.Uint64() % k)
				if j == i {
					continue
				}
				if err := hs[i].Merge(hs[j]); err != nil {
					t.Fatal(err)
				}
				refs[i].merge(refs[j])
				if r.Uint64()%2 == 0 { // restart the source empty
					hs[j], refs[j] = NewLogHist(cfg), newRefHist(cfg)
				}
			default:
				var x float64
				switch op % 10 {
				case 0:
					x = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3, cfg.Origin}[r.Uint64()%6]
				case 1: // past the top edge: clamps into the top bucket
					x = cfg.Value(cfg.Buckets-1) * r.Uniform(1, 1e6)
				default:
					x = cfg.Origin * math.Exp2(homes[i]+r.Uniform(-1.5, 1.5))
				}
				hs[i].Observe(x)
				refs[i].observe(x)
			}
			h, ref := hs[i], refs[i]
			if h.N() != ref.n {
				t.Fatalf("layout %d step %d: N %d, reference %d", li, step, h.N(), ref.n)
			}
			for _, q := range qs {
				if a, b := h.Quantile(q), ref.quantile(q); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("layout %d step %d: Quantile(%v) = %v, reference %v", li, step, q, a, b)
				}
			}
			if a, b := h.Summary(), ref.summary(); a != b {
				t.Fatalf("layout %d step %d: Summary\n%+v\nreference\n%+v", li, step, a, b)
			}
		}
	}
}

// TestLogHistWindowSizedByObservations pins the storage rule: a fresh
// histogram holds no counts, and observations confined to one doubling
// hold a window of a few dozen buckets, not the layout's 1280.
func TestLogHistWindowSizedByObservations(t *testing.T) {
	cfg := LogHistConfig{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280}
	h := NewLogHist(cfg)
	if h.counts != nil {
		t.Fatalf("NewLogHist allocated %d counts before any observation", len(h.counts))
	}
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		h.Observe(r.Uniform(40, 80))
	}
	if limit := 2*cfg.BucketsPerDoubling + minWindow; cap(h.counts) > limit {
		t.Errorf("one doubling of observations holds %d buckets, want at most %d", cap(h.counts), limit)
	}
	merged := NewLogHist(cfg)
	if err := merged.Merge(h); err != nil {
		t.Fatal(err)
	}
	if len(merged.counts) != len(h.counts) {
		t.Errorf("merge into an empty histogram holds %d buckets, source %d", len(merged.counts), len(h.counts))
	}
}
