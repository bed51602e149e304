package trace

import (
	"cmp"
	"slices"
	"time"

	"slscost/internal/stats"
)

// This file is the streaming face of the trace layer: an iterator
// abstraction over time-ordered request sequences, adapters between
// streams and materialized traces, and a streaming generator that emits
// the exact request sequence Generate materializes — in arrival order,
// with memory bounded by the function count rather than the request
// count. internal/scenario re-times these streams per function and
// internal/fleet consumes them for cluster simulations far larger than
// memory would allow a materialized trace.

// Stream is a pull iterator over requests in non-decreasing arrival
// (Start) order. Next returns the next request and true, or a zero
// Request and false once the stream is exhausted. Streams are
// single-use and not safe for concurrent use; re-open one through its
// Source.
type Stream interface {
	Next() (Request, bool)
}

// IntoStream is an optional Stream fast path. NextInto writes the next
// request into *r instead of returning it by value, so a chain of
// stream wrappers moves one pointer instead of re-copying the ~100-byte
// Request struct at every hop. Semantics are otherwise identical to
// Next; *r is unspecified when NextInto returns false.
type IntoStream interface {
	Stream
	NextInto(r *Request) bool
}

// NextIntoFunc returns the stream's NextInto method when it has one, or
// an adapter over Next. Hot consumers resolve the fast path once and
// call through the returned func per request.
func NextIntoFunc(s Stream) func(*Request) bool { return asInto(s).NextInto }

// asInto returns s's IntoStream face, adapting a Next-only stream.
func asInto(s Stream) IntoStream {
	if is, ok := s.(IntoStream); ok {
		return is
	}
	return intoAdapter{s}
}

// intoAdapter gives a Next-only stream a NextInto method.
type intoAdapter struct{ Stream }

func (a intoAdapter) NextInto(r *Request) bool {
	rr, ok := a.Next()
	if !ok {
		return false
	}
	*r = rr
	return true
}

// Source produces a fresh Stream positioned at the beginning. The
// streaming cluster simulator opens its input twice — once for the
// placement scan, once for the replay — so anything fed to it must be
// re-openable; for deterministic generators reopening just means
// re-deriving the same seeded stream.
type Source func() (Stream, error)

// sliceStream iterates over a materialized request slice.
type sliceStream struct {
	reqs []Request
	pos  int
}

func (s *sliceStream) Next() (Request, bool) {
	if s.pos >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.pos]
	s.pos++
	return r, true
}

func (s *sliceStream) NextInto(r *Request) bool {
	if s.pos >= len(s.reqs) {
		return false
	}
	*r = s.reqs[s.pos]
	s.pos++
	return true
}

// FromTrace adapts a materialized trace to the Stream interface. The
// stream shares tr's backing array; it is a view, not a copy.
func FromTrace(tr *Trace) Stream {
	if tr == nil {
		return &sliceStream{}
	}
	return &sliceStream{reqs: tr.Requests}
}

// SourceOf returns a Source that re-opens tr from the start on every
// call — the adapter that lets a recorded (CSV-loaded) trace flow
// through the streaming simulation path.
func SourceOf(tr *Trace) Source {
	return func() (Stream, error) { return FromTrace(tr), nil }
}

// Collect drains a stream into a materialized trace. It is the inverse
// of FromTrace: Collect(FromTrace(tr)) reproduces tr exactly, and
// Collect(GenerateStream(cfg)) equals Generate(cfg).
func Collect(s Stream) *Trace {
	tr := &Trace{}
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		tr.Requests = append(tr.Requests, r)
	}
	return tr
}

// FunctionStream yields one function's requests in generation order,
// which for the generator is also strictly increasing arrival order.
// Durations arrive already rescaled to the configured trace mean, so a
// FunctionStream's requests are bit-identical to the matching subset of
// Generate's output.
type FunctionStream struct {
	em    fnEmitter
	count int
	scale float64 // duration rescale factor; 0 disables rescaling
}

// FnID returns the function the stream belongs to.
func (f *FunctionStream) FnID() int { return f.em.fn }

// Len returns the total number of requests the stream will yield.
func (f *FunctionStream) Len() int { return f.count }

// Next returns the function's next request in arrival order.
func (f *FunctionStream) Next() (Request, bool) {
	var r Request
	ok := f.NextInto(&r)
	return r, ok
}

// NextInto writes the function's next request into *r — the IntoStream
// fast path, sparing the value-return copy at every consumer hop.
func (f *FunctionStream) NextInto(r *Request) bool {
	if !f.em.next(r) {
		return false
	}
	if f.scale > 0 {
		// Mirror rescaleDurations exactly: scale wall clock and CPU time
		// by the same factor, preserving utilization rates.
		r.Duration = rescaled(r.Duration, f.scale)
		r.CPUTime = time.Duration(float64(r.CPUTime) * f.scale)
	}
	return true
}

// Timing is one request's timing as a TimingCursor walks it: the
// fields of the matching Request that placement and re-timing read,
// and none of the utilizations. Duration is already rescaled.
type Timing struct {
	PodID        int
	Start        time.Duration
	Duration     time.Duration
	ColdStart    bool
	InitDuration time.Duration // zero unless ColdStart
}

// TimingCursor walks one function's requests in generation order
// without drawing utilizations or building Requests: the trace's shape
// at a fraction of emission's cost. It advances the same timing step
// FunctionStream emits through, so every Timing equals the matching
// FunctionStream request's fields bit for bit.
type TimingCursor struct {
	c     timingCursor
	count int
	scale float64
}

// Len returns the total number of requests the cursor will walk.
func (t *TimingCursor) Len() int { return t.count }

// Flavor returns the function's sandbox flavor.
func (t *TimingCursor) Flavor() Flavor { return t.c.p.flavor }

// Next writes the function's next request timing into *out and
// reports whether there was one.
func (t *TimingCursor) Next(out *Timing) bool {
	arrivalMs, durMs, cold, ok := t.c.step()
	if !ok {
		return false
	}
	*out = Timing{
		PodID:     t.c.podID,
		Start:     time.Duration(arrivalMs * float64(time.Millisecond)),
		Duration:  time.Duration(durMs * float64(time.Millisecond)),
		ColdStart: cold,
	}
	if t.scale > 0 {
		out.Duration = rescaled(out.Duration, t.scale)
	}
	if cold {
		out.InitDuration = time.Duration(t.c.initMs * float64(time.Millisecond))
	}
	return true
}

// Calibration is the generator's reusable calibration state: the
// per-function latent profiles, request counts, pod-ID bases, and the
// duration-rescale factor. The rescale factor depends on every raw
// duration, so lazy emission needs a calibration sweep first — but the
// sweep only walks each function's timing stream (arrivals, pod
// boundaries, durations), never the ~3× costlier utilization draws. A
// Calibration is a pure function of its GeneratorConfig and can
// instantiate any number of independent stream openings without
// re-running the sweep; memory is O(Functions), not O(Requests).
type Calibration struct {
	cfg      GeneratorConfig // sanitized
	profiles []fnProfile
	counts   []int
	podBases []int
	scale    float64
	pods     int
}

// Calibrate runs the calibration sweep for cfg. The result is empty
// (zero functions, zero pods) when cfg requests no trace.
func Calibrate(cfg GeneratorConfig) *Calibration {
	if cfg.Requests <= 0 {
		return &Calibration{}
	}
	cfg = cfg.sanitize()
	rng := stats.NewRand(cfg.Seed)
	profiles, totalWeight := buildProfiles(rng, cfg)
	counts := requestCounts(cfg, profiles, totalWeight)

	c := &Calibration{
		cfg:      cfg,
		profiles: profiles,
		counts:   counts,
		podBases: make([]int, cfg.Functions),
	}
	// Raw durations are truncated to nanoseconds, as emission does, and
	// summed per pod before the pod sums are totalled.
	var durSumMs, podSumMs float64
	pods := 0
	for fn := range profiles {
		c.podBases[fn] = pods
		tc := newTimingCursor(cfg.Seed, fn, &profiles[fn], counts[fn], pods)
		for {
			_, durMs, cold, ok := tc.step()
			if !ok || cold {
				durSumMs += podSumMs
				podSumMs = 0
			}
			if !ok {
				break
			}
			if cold {
				pods++
			}
			raw := time.Duration(durMs * float64(time.Millisecond))
			podSumMs += float64(raw) / float64(time.Millisecond)
		}
	}
	if mean := durSumMs / float64(cfg.Requests); mean > 0 {
		c.scale = cfg.MeanDurationMs / mean
	}
	c.pods = pods
	return c
}

// Pods returns the total pod count of the calibrated trace.
func (c *Calibration) Pods() int { return c.pods }

// Functions returns the calibrated trace's function count.
func (c *Calibration) Functions() int { return len(c.profiles) }

// TimingCursor returns a fresh timing walk over function fn, positioned
// at its beginning.
func (c *Calibration) TimingCursor(fn int) TimingCursor {
	return TimingCursor{
		c:     newTimingCursor(c.cfg.Seed, fn, &c.profiles[fn], c.counts[fn], c.podBases[fn]),
		count: c.counts[fn],
		scale: c.scale,
	}
}

// Streams instantiates one fresh time-ordered stream per function,
// each positioned at its function's beginning (emitters re-derive the
// per-function streams from the seed, so repeated calls yield
// independent, identical openings). The streams share one backing
// allocation.
func (c *Calibration) Streams() []*FunctionStream {
	fs := make([]FunctionStream, len(c.profiles))
	out := make([]*FunctionStream, len(fs))
	for fn := range fs {
		fs[fn] = FunctionStream{
			em:    newFnEmitter(c.cfg.Seed, fn, &c.profiles[fn], c.counts[fn], c.cfg.UtilCorrelation, c.podBases[fn]),
			count: c.counts[fn],
			scale: c.scale,
		}
		out[fn] = &fs[fn]
	}
	return out
}

// Stream instantiates a fresh merged stream over the whole calibrated
// trace. The result implements PodScanner: the streaming cluster
// simulator's placement pass reads pod metadata from a timing-only
// walk instead of generating (and discarding) every request, and the
// merge is only built once the stream is first pulled.
func (c *Calibration) Stream() Stream {
	return LazyScanStream(c.PodMetas, func() IntoStream {
		fns := c.Streams()
		srcs := make([]Stream, len(fns))
		for i, f := range fns {
			srcs[i] = f
		}
		return Merge(srcs...)
	})
}

// PodMeta describes one sandbox of a generated trace: identity, flavor,
// cold-start initialization, arrival extent, and request count — the
// placement-relevant shape of the pod, with durations already rescaled.
// It carries exactly what a full scan of the emitted requests would
// reconstruct per pod.
type PodMeta struct {
	ID    int
	FnID  int
	VCPU  float64
	MemMB float64
	Init  time.Duration
	First time.Duration
	Last  time.Duration
	NReqs int
}

// PodScanner is implemented by streams that can enumerate their pod
// population up front without being consumed. The streaming cluster
// simulator's placement pass uses it to skip materializing every
// request of its first pass.
type PodScanner interface {
	PodScan() []PodMeta
}

// AddTiming folds one request of function fn (flavor f) into pods, a
// pod table built in generation order: a cold start opens a new pod,
// and every request extends the latest pod's last turnaround end and
// request count — what a per-request scan records per pod.
func AddTiming(pods []PodMeta, fn int, f Flavor, t *Timing) []PodMeta {
	end := t.Start + t.Duration + t.InitDuration
	if t.ColdStart {
		pods = append(pods, PodMeta{
			ID:    t.PodID,
			FnID:  fn,
			VCPU:  f.VCPU,
			MemMB: f.MemMB,
			Init:  t.InitDuration,
			First: t.Start,
			Last:  end,
		})
	}
	p := &pods[len(pods)-1]
	if end > p.Last {
		p.Last = end
	}
	p.NReqs++
	return pods
}

// SortPods puts a pod table into first-appearance order of the merged
// stream: ascending first arrival, ties to the lower pod ID. That is
// the merge's order whenever pod IDs ascend with the merge's source
// order and a source's pods never start at the same instant — IDs are
// function-major and the merge breaks ties toward the lower source.
func SortPods(pods []PodMeta) {
	slices.SortFunc(pods, func(a, b PodMeta) int {
		if c := cmp.Compare(a.First, b.First); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// PodMetas walks every function's timing stream and returns the pods of
// the calibrated trace in order of first arrival — the order a full
// scan of the merged stream would first encounter them. The walk draws
// no utilizations, so it costs a fraction of an emission pass. The
// slice is freshly built per call; callers own it.
func (c *Calibration) PodMetas() []PodMeta {
	metas := make([]PodMeta, 0, c.pods)
	var t Timing
	for fn := range c.profiles {
		tc := c.TimingCursor(fn)
		f := tc.Flavor()
		for tc.Next(&t) {
			metas = AddTiming(metas, fn, f, &t)
		}
	}
	SortPods(metas)
	return metas
}

// lazyScan is LazyScanStream's stream.
type lazyScan struct {
	scan func() []PodMeta
	open func() IntoStream
	s    IntoStream
}

// LazyScanStream returns a stream that enumerates its pods through
// scan — the result implements PodScanner — and defers open, which
// builds the request stream, to the first pull. A placement pass that
// only reads pod metadata therefore never primes the request merge.
func LazyScanStream(scan func() []PodMeta, open func() IntoStream) IntoStream {
	return &lazyScan{scan: scan, open: open}
}

func (l *lazyScan) PodScan() []PodMeta { return l.scan() }

func (l *lazyScan) Next() (Request, bool) {
	var r Request
	ok := l.NextInto(&r)
	return r, ok
}

func (l *lazyScan) NextInto(r *Request) bool {
	if l.s == nil {
		l.s = l.open()
	}
	return l.s.NextInto(r)
}

// GenerateByFunction returns one time-ordered stream per function of
// the trace Generate(cfg) would materialize, plus the total pod count.
// The union of the streams is exactly Generate's request multiset; the
// scenario engine re-times each function's stream independently and
// GenerateStream merges them back into one globally ordered stream.
// Callers opening the same configuration repeatedly should Calibrate
// once and call Streams per opening.
func GenerateByFunction(cfg GeneratorConfig) ([]*FunctionStream, int) {
	c := Calibrate(cfg)
	return c.Streams(), c.Pods()
}

// GenerateStream emits the trace Generate(cfg) materializes as a
// time-ordered stream with O(Functions) memory: per-function emitters
// merged by arrival time. The emitted sequence is identical to
// Generate's, ties included: simultaneous arrivals merge in function
// order, which is exactly the order Generate's stable sort leaves them
// in (its pre-sort layout is function-major, and arrivals within one
// function are strictly increasing).
func GenerateStream(cfg GeneratorConfig) Stream {
	return Calibrate(cfg).Stream()
}

// GenerateSource returns a Source for the streaming cluster simulator.
// The calibration sweep runs once, up front; each open then only pays
// for lazy emission, so the simulator's two-pass protocol costs two
// emissions, not two calibrations.
func GenerateSource(cfg GeneratorConfig) Source {
	c := Calibrate(cfg)
	return func() (Stream, error) { return c.Stream(), nil }
}

// mergeEntry is one source's buffered-head key inside a Merge: just the
// ordering fields, 16 bytes. The buffered Request itself lives in a
// per-source slot (merged.heads), so heap sifts move small keys instead
// of ~90-byte Request copies.
type mergeEntry struct {
	start time.Duration
	src   int32
}

// merged is a k-way merge of time-ordered streams over a hand-rolled
// binary heap of (Start, source index) keys: earliest arrival first,
// ties broken toward the lower-indexed source so the merge is
// deterministic.
type merged struct {
	srcs  []IntoStream // per-source NextInto fast paths
	heads []Request    // heads[src] is src's buffered next request
	h     []mergeEntry
}

func (m *merged) less(a, b mergeEntry) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	return a.src < b.src
}

// siftDown restores the heap property from the root.
func (m *merged) siftDown(i int) {
	n := len(m.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && m.less(m.h[right], m.h[left]) {
			least = right
		}
		if !m.less(m.h[least], m.h[i]) {
			return
		}
		m.h[i], m.h[least] = m.h[least], m.h[i]
		i = least
	}
}

func (m *merged) Next() (Request, bool) {
	var r Request
	ok := m.NextInto(&r)
	return r, ok
}

func (m *merged) NextInto(out *Request) bool {
	if len(m.h) == 0 {
		return false
	}
	src := m.h[0].src
	*out = m.heads[src]
	if m.srcs[src].NextInto(&m.heads[src]) {
		m.h[0].start = m.heads[src].Start
	} else {
		n := len(m.h) - 1
		m.h[0] = m.h[n]
		m.h = m.h[:n]
	}
	m.siftDown(0)
	return true
}

// Merge combines time-ordered streams into one time-ordered stream.
// Each source must be non-decreasing in Start; simultaneous arrivals
// across sources are emitted in source order. Memory is O(len(srcs)).
func Merge(srcs ...Stream) IntoStream {
	m := &merged{
		srcs:  make([]IntoStream, len(srcs)),
		heads: make([]Request, len(srcs)),
		h:     make([]mergeEntry, 0, len(srcs)),
	}
	for i, s := range srcs {
		m.srcs[i] = asInto(s)
		if m.srcs[i].NextInto(&m.heads[i]) {
			m.h = append(m.h, mergeEntry{start: m.heads[i].Start, src: int32(i)})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}
