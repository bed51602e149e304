package scenario

import (
	"fmt"
	"math"
	"sort"
	"time"

	"slscost/internal/stats"
	"slscost/internal/trace"
)

// Tenant is one slice of a multi-tenant mix: a share of the total
// request volume with its own arrival shape, popularity skew, and
// flavor bias. Weights are normalized at synthesis time, so scaling
// every weight by the same constant yields the identical trace.
type Tenant struct {
	Name   string
	Weight float64
	Shape  Shape
	// ZipfExponent and FlavorBias feed straight into the tenant's
	// trace.GeneratorConfig (zero keeps the calibrated defaults).
	ZipfExponent float64
	FlavorBias   int
}

// Scenario is a named workload: either a single shape applied to the
// whole request volume, or a tenant mix (Tenants non-empty, which takes
// precedence over Shape).
type Scenario struct {
	Name        string
	Description string
	Shape       Shape
	Tenants     []Tenant
}

// Mix builds a multi-tenant scenario from explicit tenants.
func Mix(name string, tenants ...Tenant) Scenario {
	return Scenario{Name: name, Description: "multi-tenant mix", Tenants: tenants}
}

// Config parameterizes scenario trace synthesis.
type Config struct {
	// Base supplies the request volume, function count, seed, and the
	// calibrated marginals (durations, utilizations, pod structure).
	// Requests and Functions are totals across all tenants.
	Base trace.GeneratorConfig
	// Horizon is the length of one shape period in virtual time. Zero
	// derives it from the workload density (≈30 s of mean inter-arrival
	// headroom per request per function, clamped to [30 min, 48 h]) so a
	// function at median popularity spans about one period.
	Horizon time.Duration
	// Tenants fans a single-shape scenario into this many phase-shifted
	// tenants with cycling popularity skews and flavor biases; 0 or 1
	// leaves the scenario as authored. Ignored when the scenario defines
	// its own tenant mix.
	Tenants int
}

// DefaultConfig returns the calibrated generator under an auto horizon.
func DefaultConfig() Config { return Config{Base: trace.DefaultGeneratorConfig()} }

// EffectiveHorizon resolves the effective period length: the explicit
// Horizon when set, otherwise the workload-density-derived default.
// Exported because the fault compiler (internal/scenario/faults) keys
// its fraction-of-horizon instants to the same period the shapes use.
func (c Config) EffectiveHorizon() time.Duration { return c.horizon() }

// horizon resolves the effective period length.
func (c Config) horizon() time.Duration {
	if c.Horizon > 0 {
		return c.Horizon
	}
	functions := c.Base.Functions
	if functions <= 0 {
		functions = 1
	}
	h := time.Duration(float64(c.Base.Requests) / float64(functions) * 30 * float64(time.Second))
	if min := 30 * time.Minute; h < min {
		h = min
	}
	if max := 48 * time.Hour; h > max {
		h = max
	}
	return h
}

// Validate reports whether the scenario/config pair is usable.
func (s Scenario) Validate(cfg Config) error {
	if s.Shape == nil && len(s.Tenants) == 0 {
		return fmt.Errorf("scenario: %q has neither shape nor tenants", s.Name)
	}
	for _, t := range s.Tenants {
		if t.Shape == nil {
			return fmt.Errorf("scenario: %s: tenant %q without shape", s.Name, t.Name)
		}
		if t.Weight < 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return fmt.Errorf("scenario: %s: tenant %q has bad weight %v", s.Name, t.Name, t.Weight)
		}
	}
	if cfg.Base.Requests <= 0 {
		return fmt.Errorf("scenario: non-positive request count %d", cfg.Base.Requests)
	}
	if cfg.Tenants < 0 {
		return fmt.Errorf("scenario: negative tenant count %d", cfg.Tenants)
	}
	if cfg.Horizon < 0 {
		return fmt.Errorf("scenario: negative horizon %v", cfg.Horizon)
	}
	if err := cfg.Base.Validate(); err != nil {
		return err
	}
	return nil
}

// tenants resolves the effective tenant list: the scenario's own mix,
// an auto-derived fan-out of cfg.Tenants phase-shifted tenants, or a
// single whole-volume tenant.
func (s Scenario) tenants(cfg Config) []Tenant {
	if len(s.Tenants) > 0 {
		return s.Tenants
	}
	n := cfg.Tenants
	if n <= 1 {
		return []Tenant{{Name: s.Name, Weight: 1, Shape: s.Shape}}
	}
	// Deterministic fan-out: phases spread over the period, skew and
	// flavor bias cycling so tenants are distinguishable but the whole
	// derivation is a pure function of (scenario, n).
	out := make([]Tenant, n)
	zipfs := []float64{1.1, 0.9, 1.4}
	biases := []int{0, -1, 1}
	for i := range out {
		out[i] = Tenant{
			Name:         fmt.Sprintf("%s-t%d", s.Name, i),
			Weight:       1,
			Shape:        Shifted{Shape: s.Shape, Phase: float64(i) / float64(n)},
			ZipfExponent: zipfs[i%len(zipfs)],
			FlavorBias:   biases[i%len(biases)],
		}
	}
	return out
}

// tenantAlloc is one tenant's resolved slice of the synthesis: its
// shape, its fully parameterized generator config, its private shape
// seed, and the function-ID offset its output shifts by. Both the
// materialized (Trace) and streaming (Stream) paths synthesize from
// the same plan, which is what keeps them bit-identical.
type tenantAlloc struct {
	shape     Shape
	gcfg      trace.GeneratorConfig
	shapeSeed uint64
	fnBase    int
}

// plan splits the request and function budgets across the effective
// tenant list. Tenants whose rounded share is zero requests are
// dropped (they consume none of the function budget); every retained
// tenant gets at least one function, and a reservation keeps rounding
// from pushing later tenants past the budget.
func (s Scenario) plan(cfg Config) ([]tenantAlloc, error) {
	tenants := s.tenants(cfg)

	var totalWeight float64
	for _, t := range tenants {
		totalWeight += t.Weight
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("scenario: %s: tenant weights sum to %v", s.Name, totalWeight)
	}
	functionBudget := cfg.Base.Functions
	if functionBudget <= 0 {
		functionBudget = 1
	}
	if len(tenants) > functionBudget {
		return nil, fmt.Errorf("scenario: %s: %d tenants exceed the %d-function budget",
			s.Name, len(tenants), functionBudget)
	}

	var plans []tenantAlloc
	fnBase := 0
	remaining := cfg.Base.Requests
	remainingFns := cfg.Base.Functions
	if remainingFns <= 0 {
		remainingFns = 1
	}
	weightLeft := totalWeight
	for i, t := range tenants {
		share := t.Weight / weightLeft
		reqs := int(math.Round(float64(remaining) * share))
		fns := int(math.Round(float64(remainingFns) * share))
		if i == len(tenants)-1 {
			reqs, fns = remaining, remainingFns
		}
		if reqs > remaining {
			reqs = remaining
		}
		remaining -= reqs
		weightLeft -= t.Weight
		if reqs == 0 {
			continue // emits nothing: consumes none of the function budget
		}
		// Reserve one function per tenant still to come so rounding can
		// never push later tenants (and their function IDs) past the
		// budget; the cap only binds in near-degenerate weight splits.
		if maxFns := remainingFns - (len(tenants) - i - 1); fns > maxFns {
			fns = maxFns
		}
		if fns < 1 {
			fns = 1
		}
		remainingFns -= fns
		if remainingFns < 0 {
			remainingFns = 0
		}

		gcfg := cfg.Base
		gcfg.Requests = reqs
		gcfg.Functions = fns
		gcfg.Seed = mix(cfg.Base.Seed, 0x74656e+uint64(i)) // "ten"+i
		gcfg.ZipfExponent = t.ZipfExponent
		gcfg.FlavorBias = t.FlavorBias
		plans = append(plans, tenantAlloc{
			shape:     t.Shape,
			gcfg:      gcfg,
			shapeSeed: mix(cfg.Base.Seed, 0x736861+uint64(i)), // "sha"+i
			fnBase:    fnBase,
		})
		fnBase += fns
	}
	return plans, nil
}

// Trace synthesizes the scenario's request trace: per tenant, a
// calibrated base trace supplies functions, pods, durations, flavors,
// and cold-start structure, and the tenant's shape re-times every
// function's arrival stream as a shape-modulated renewal process. The
// result is sorted by arrival, satisfies (*trace.Trace).Validate, and
// is bit-reproducible from cfg.Base.Seed. Stream yields the identical
// request sequence without materializing it.
func (s Scenario) Trace(cfg Config) (*trace.Trace, error) {
	if err := s.Validate(cfg); err != nil {
		return nil, err
	}
	plans, err := s.plan(cfg)
	if err != nil {
		return nil, err
	}
	horizon := cfg.horizon()

	out := &trace.Trace{}
	podBase := 0
	for _, pl := range plans {
		base := trace.Generate(pl.gcfg)
		retime(base, pl.shape, horizon, pl.shapeSeed)

		maxPod := 0
		for ri := range base.Requests {
			r := &base.Requests[ri]
			r.FnID += pl.fnBase
			if r.PodID > maxPod {
				maxPod = r.PodID
			}
			r.PodID += podBase
		}
		podBase += maxPod
		out.Requests = append(out.Requests, base.Requests...)
	}

	// A single emitting tenant's block is already sorted by retime; only
	// a concatenation of several blocks needs the final pass. The sort
	// is stable and keyed on Start alone: cross-tenant ties keep the
	// tenant-major concatenation order and within-tenant ties stay in
	// retime's (Start, function) order — together exactly the tie rule
	// Stream's merge applies (sources are tenant-major, function-minor).
	if len(plans) > 1 {
		sort.SliceStable(out.Requests, func(a, b int) bool {
			return out.Requests[a].Start < out.Requests[b].Start
		})
	}
	return out, nil
}

// retime rewrites tr's arrival times in place: each function becomes an
// independent renewal process whose instantaneous rate follows shape
// (normalized to mean 1 and extended periodically over the horizon).
// A function with n requests gets a base mean gap of horizon/n, so all
// functions span about one period and popularity maps to density. Gaps
// scale inversely with the local intensity — droughts stretch idle time
// past keep-alive windows, bursts collapse it — while pod membership,
// ordering, durations, and flavors are untouched.
func retime(tr *trace.Trace, shape Shape, horizon time.Duration, seed uint64) {
	mean := meanRate(shape)
	if mean <= 0 {
		mean = 1 // degenerate all-zero shape: treat as steady
	}
	h := horizon.Seconds()

	// Group request indices by function, preserving arrival order
	// (trace.Generate output is sorted; per-function order is therefore
	// the generation order).
	byFn := make(map[int][]int)
	var fns []int
	for i, r := range tr.Requests {
		if _, ok := byFn[r.FnID]; !ok {
			fns = append(fns, r.FnID)
		}
		byFn[r.FnID] = append(byFn[r.FnID], i)
	}
	sort.Ints(fns)

	for _, fn := range fns {
		idxs := byFn[fn]
		rn := newRenewal(shape, mean, h, seed, fn, len(idxs))
		for _, ri := range idxs {
			r := &tr.Requests[ri]
			r.Start = rn.next(r.Duration)
		}
	}
	// Ties (same-nanosecond re-timed arrivals from different functions)
	// order by function index — the rule the streaming path's merge
	// applies, so Trace and Stream stay bit-identical even on ties.
	sort.SliceStable(tr.Requests, func(a, b int) bool {
		if tr.Requests[a].Start != tr.Requests[b].Start {
			return tr.Requests[a].Start < tr.Requests[b].Start
		}
		return tr.Requests[a].FnID < tr.Requests[b].FnID
	})
}

// mix derives a decorrelated splitmix-style stream seed from (seed,
// salt), the same stream-keying discipline the fleet simulator uses.
func mix(seed, salt uint64) uint64 { return stats.MixSeed(seed, salt) }
