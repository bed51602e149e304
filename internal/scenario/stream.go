package scenario

import (
	"math"
	"time"

	"slscost/internal/stats"
	"slscost/internal/trace"
)

// This file is the scenario engine's synthesis: each tenant's
// per-function generator streams, re-timed lazily as shape-modulated
// renewal processes and merged by arrival time. Memory is
// O(tenants × functions) instead of O(requests); Trace collects the
// same stream.

// intensityFloor bounds how far a dead zone of a shape can stretch
// inter-arrival gaps (10^4×), so traces terminate even under shapes
// that are zero almost everywhere.
const intensityFloor = 1e-4

// renewal is one function's shape-modulated renewal clock: the one
// re-timing step, shared by the request stream and the pod walk. The
// clock's instantaneous rate follows the shape, normalized to mean 1
// and extended periodically over the horizon. A function with n requests gets a base mean gap of horizon/n, so
// all functions span about one period and popularity maps to density.
// Gaps scale inversely with the local intensity — droughts stretch
// idle time past keep-alive windows, bursts collapse it — while pod
// membership, ordering, durations, and flavors are untouched.
type renewal struct {
	shape   Shape
	mean    float64 // shape's mean intensity (normalizer)
	rng     stats.Rand
	h       float64 // horizon seconds
	gapMean float64 // base mean gap: horizon / function request count
	t       float64 // renewal clock, seconds
}

// newRenewal starts function fn's clock (n requests) at zero, on the
// function's private stream derived from the tenant's shape seed.
func newRenewal(shape Shape, mean, h float64, seed uint64, fn, n int) renewal {
	return renewal{
		shape:   shape,
		mean:    mean,
		rng:     *stats.NewRand(mix(seed, uint64(fn)+1)),
		h:       h,
		gapMean: h / float64(n),
	}
}

// next returns the re-timed arrival of a request that runs for d: the
// gap to it scales inversely with the shape's local intensity, then
// the request's execution advances the clock.
func (rn *renewal) next(d time.Duration) time.Duration {
	x := rn.t / rn.h
	x -= math.Floor(x)
	lam := rn.shape.Rate(x) / rn.mean
	if lam < intensityFloor || math.IsNaN(lam) {
		lam = intensityFloor
	}
	rn.t += rn.rng.Exp(rn.gapMean / lam)
	start := time.Duration(rn.t * float64(time.Second))
	rn.t += d.Seconds()
	return start
}

// retimeStream lazily re-times one function's generator stream as a
// shape-modulated renewal process, applying the tenant's function- and
// pod-ID offsets on the way out. Arrival times are strictly
// increasing, so the stream satisfies the trace.Stream ordering
// contract and can be merged with its siblings.
type retimeStream struct {
	src      *trace.FunctionStream
	rn       renewal
	fnShift  int
	podShift int
}

// Next re-times the function's next request.
func (rs *retimeStream) Next() (trace.Request, bool) {
	var r trace.Request
	ok := rs.NextInto(&r)
	return r, ok
}

// NextInto re-times the function's next request in place.
func (rs *retimeStream) NextInto(r *trace.Request) bool {
	if !rs.src.NextInto(r) {
		return false
	}
	r.Start = rs.rn.next(r.Duration)
	r.FnID += rs.fnShift
	r.PodID += rs.podShift
	return true
}

// streamPlan is one tenant's reusable streaming state: its allocation,
// its generator calibration, and its shape's mean intensity. Building
// it once lets a Source re-open the scenario stream without re-running
// the calibration sweep or re-sampling the shape.
type streamPlan struct {
	pl      tenantAlloc
	cal     *trace.Calibration
	mean    float64
	podBase int
}

// streamPlans resolves and calibrates every tenant of the scenario.
func (s Scenario) streamPlans(cfg Config) ([]streamPlan, error) {
	if err := s.Validate(cfg); err != nil {
		return nil, err
	}
	plans, err := s.plan(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]streamPlan, len(plans))
	podBase := 0
	for i, pl := range plans {
		mean := meanRate(pl.shape)
		if mean <= 0 {
			mean = 1 // degenerate all-zero shape: treat as steady
		}
		out[i] = streamPlan{pl: pl, cal: trace.Calibrate(pl.gcfg), mean: mean, podBase: podBase}
		podBase += out[i].cal.Pods()
	}
	return out, nil
}

// openStream instantiates one fresh stream over calibrated plans. Its
// pod scan is a timing walk (podScan); the request merge is only built
// once the stream is first pulled.
func openStream(plans []streamPlan, horizon time.Duration) trace.Stream {
	return trace.LazyScanStream(
		func() []trace.PodMeta { return podScan(plans, horizon) },
		func() trace.IntoStream { return mergeStreams(plans, horizon) },
	)
}

// mergeStreams merges every tenant's re-timed function streams, in
// tenant-major, function-minor source order.
func mergeStreams(plans []streamPlan, horizon time.Duration) trace.IntoStream {
	h := horizon.Seconds()
	n := 0
	for _, sp := range plans {
		n += sp.cal.Functions()
	}
	retimers := make([]retimeStream, 0, n)
	srcs := make([]trace.Stream, 0, n)
	for _, sp := range plans {
		for _, f := range sp.cal.Streams() {
			if f.Len() == 0 {
				continue // a function with no requests re-times to nothing
			}
			retimers = append(retimers, retimeStream{
				src:      f,
				rn:       newRenewal(sp.pl.shape, sp.mean, h, sp.pl.shapeSeed, f.FnID(), f.Len()),
				fnShift:  sp.pl.fnBase,
				podShift: sp.podBase,
			})
			srcs = append(srcs, &retimers[len(retimers)-1])
		}
	}
	return trace.Merge(srcs...)
}

// podScan walks every tenant's functions over their timing cursors and
// renewal clocks — no utilization draws, no Requests, no merge — and
// returns the scenario's pods in the merged stream's first-appearance
// order. Pod IDs ascend tenant-major, then by function, which is the
// merge's source order, so trace.SortPods yields exactly that order.
func podScan(plans []streamPlan, horizon time.Duration) []trace.PodMeta {
	h := horizon.Seconds()
	n := 0
	for _, sp := range plans {
		n += sp.cal.Pods()
	}
	pods := make([]trace.PodMeta, 0, n)
	var t trace.Timing
	for _, sp := range plans {
		for fn := 0; fn < sp.cal.Functions(); fn++ {
			tc := sp.cal.TimingCursor(fn)
			if tc.Len() == 0 {
				continue
			}
			rn := newRenewal(sp.pl.shape, sp.mean, h, sp.pl.shapeSeed, fn, tc.Len())
			f := tc.Flavor()
			for tc.Next(&t) {
				t.Start = rn.next(t.Duration)
				t.PodID += sp.podBase
				pods = trace.AddTiming(pods, fn+sp.pl.fnBase, f, &t)
			}
		}
	}
	trace.SortPods(pods)
	return pods
}

// Stream synthesizes the scenario's trace as a time-ordered request
// stream without materializing it: per tenant, per function, a lazy
// generator stream is wrapped in the renewal re-timer, and all streams
// merge by arrival, simultaneous arrivals in tenant-major,
// function-minor order. Memory is bounded by tenants × functions
// instead of the request count.
func (s Scenario) Stream(cfg Config) (trace.Stream, error) {
	plans, err := s.streamPlans(cfg)
	if err != nil {
		return nil, err
	}
	return openStream(plans, cfg.horizon()), nil
}

// Source returns a trace.Source over the scenario — the form
// fleet.SimulateStream consumes, which opens its input once for the
// placement scan and once for the replay. Tenant resolution, the
// generator calibration sweeps, and shape-mean sampling run once, up
// front; each open only pays for lazy emission. Validation errors
// surface on open.
func (s Scenario) Source(cfg Config) trace.Source {
	plans, err := s.streamPlans(cfg)
	horizon := cfg.horizon()
	return func() (trace.Stream, error) {
		if err != nil {
			return nil, err
		}
		return openStream(plans, horizon), nil
	}
}

// Plan is a compiled scenario: tenant resolution, the per-tenant
// generator calibration sweeps, and shape-mean sampling, all run once
// at Compile time and never again. A Plan is immutable and safe for
// concurrent use — every Source opening re-derives its RNG streams
// from the seeds, so openings are independent and identical — which
// is what lets the slscostd daemon share one compiled plan across jobs
// and the optimizer share one across every candidate of a sweep. The
// streams a Plan emits are bit-identical to Scenario.Stream's for the
// same Config.
type Plan struct {
	name    string
	plans   []streamPlan
	horizon time.Duration
}

// Compile resolves and calibrates the scenario under cfg. The returned
// plan amortizes the expensive planning work (the calibration sweep
// replays every generator block once); each subsequent Source opening
// pays only for lazy emission.
func (s Scenario) Compile(cfg Config) (*Plan, error) {
	plans, err := s.streamPlans(cfg)
	if err != nil {
		return nil, err
	}
	return &Plan{name: s.Name, plans: plans, horizon: cfg.horizon()}, nil
}

// Name returns the compiled scenario's name.
func (p *Plan) Name() string { return p.name }

// Source returns a re-openable stream over the compiled plan. Every
// opening yields the identical sequence Scenario.Source would emit for
// the Config the plan was compiled under.
func (p *Plan) Source() trace.Source {
	return func() (trace.Stream, error) {
		return openStream(p.plans, p.horizon), nil
	}
}
