package trace

import (
	"fmt"
	"math"
	"time"

	"slscost/internal/stats"
)

// Flavor is a fixed vCPU–memory sandbox combination, mirroring the flavor
// catalog of Huawei FunctionGraph that the trace reports allocations in.
type Flavor struct {
	VCPU  float64
	MemMB float64
}

// DefaultFlavors is the flavor catalog used by the generator: fixed
// CPU–memory combos between 0.1 vCPU/256 MB and 4 vCPU/8192 MB, weighted
// toward small flavors as production traces report. The memory-rich
// ~1:2 GB ratio matches production FaaS flavors, and keeps the AWS
// proportional-CPU mapping only slightly above the recorded allocation
// (§2.3's "slightly higher than Huawei").
var DefaultFlavors = []Flavor{
	{0.1, 256},
	{0.25, 512},
	{0.5, 1024},
	{1, 2048},
	{2, 4096},
	{4, 8192},
}

// flavorWeights biases the flavor choice toward small allocations; the
// weights roughly follow the flavor popularity in production traces.
var flavorWeights = []float64{0.18, 0.22, 0.28, 0.2, 0.08, 0.04}

// GeneratorConfig parameterizes the synthetic trace generator.
type GeneratorConfig struct {
	// Requests is the total number of request records to produce.
	Requests int
	// Functions is the number of distinct functions; popularity is
	// Zipf-distributed across them.
	Functions int
	// Seed makes the trace reproducible.
	Seed uint64
	// MeanDurationMs is the target mean execution duration. The paper's
	// trace reports 58.19 ms. Durations are rescaled to hit this exactly.
	MeanDurationMs float64
	// UtilCorrelation is the latent-factor weight controlling the
	// CPU–memory utilization correlation (Pearson ≈ 0.55 at 0.52).
	UtilCorrelation float64
	// ColdStartRate is the approximate fraction of requests that are cold
	// starts, controlled through pod sizes.
	ColdStartRate float64
	// ZipfExponent skews function popularity: function rank i gets weight
	// 1/(i+1)^s. Zero means the trace-calibrated default of 1.1; larger
	// values concentrate traffic on fewer functions (a skewed tenant),
	// smaller values flatten it.
	ZipfExponent float64
	// FlavorBias shifts every function's drawn flavor index by this many
	// catalog steps (clamped to the catalog), biasing a tenant toward
	// smaller (negative) or larger (positive) sandboxes. Zero reproduces
	// the calibrated flavor mix bit-for-bit.
	FlavorBias int
}

// DefaultGeneratorConfig returns the calibration used by the experiments:
// marginals matching the published Huawei trace statistics.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Requests:        200000,
		Functions:       400,
		Seed:            20260613,
		MeanDurationMs:  58.19,
		UtilCorrelation: 0.52,
		ColdStartRate:   0.04,
	}
}

// Validate reports whether the configuration is well-formed. Generate
// itself is lenient — out-of-range fields fall back to the calibrated
// defaults — but callers that construct configurations from external
// input (CLI flags, fuzzers, scenario mixes) can reject garbage early.
func (cfg GeneratorConfig) Validate() error {
	if cfg.Requests < 0 {
		return fmt.Errorf("trace: negative request count %d", cfg.Requests)
	}
	if cfg.Functions < 0 {
		return fmt.Errorf("trace: negative function count %d", cfg.Functions)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MeanDurationMs", cfg.MeanDurationMs},
		{"UtilCorrelation", cfg.UtilCorrelation},
		{"ColdStartRate", cfg.ColdStartRate},
		{"ZipfExponent", cfg.ZipfExponent},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: %s is %v", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("trace: negative %s %v", f.name, f.v)
		}
	}
	if cfg.UtilCorrelation > 1 {
		return fmt.Errorf("trace: UtilCorrelation %v above 1", cfg.UtilCorrelation)
	}
	if cfg.ColdStartRate >= 1 {
		return fmt.Errorf("trace: ColdStartRate %v not below 1", cfg.ColdStartRate)
	}
	return nil
}

// sanitize clamps every out-of-range (or non-finite) field to the
// calibrated default so Generate never propagates NaN/Inf into a trace.
func (cfg GeneratorConfig) sanitize() GeneratorConfig {
	if cfg.Functions <= 0 {
		cfg.Functions = 1
	}
	if cfg.MeanDurationMs <= 0 || math.IsNaN(cfg.MeanDurationMs) || math.IsInf(cfg.MeanDurationMs, 0) {
		cfg.MeanDurationMs = 58.19
	}
	if cfg.UtilCorrelation < 0 || cfg.UtilCorrelation > 1 || math.IsNaN(cfg.UtilCorrelation) {
		cfg.UtilCorrelation = 0.52
	}
	if cfg.ColdStartRate <= 0 || cfg.ColdStartRate >= 1 || math.IsNaN(cfg.ColdStartRate) {
		cfg.ColdStartRate = 0.04
	}
	if cfg.ZipfExponent <= 0 || math.IsNaN(cfg.ZipfExponent) || math.IsInf(cfg.ZipfExponent, 0) {
		cfg.ZipfExponent = 1.1
	}
	return cfg
}

// fnProfile is the per-function latent profile the generator draws
// requests from.
type fnProfile struct {
	flavor      Flavor
	meanDurMs   float64 // median of the per-request lognormal
	sigma       float64 // per-request lognormal spread
	cpuUtilA    float64 // Beta alpha for CPU utilization
	cpuUtilB    float64
	memUtilA    float64
	memUtilB    float64
	initMs      float64 // cold-start initialization mean
	podSizeMean float64 // mean requests per pod (geometric)
	weight      float64 // popularity

	// Derived constants, computed once per profile so the per-request
	// hot loop does no logs or square roots of fixed parameters.
	logMeanDur float64          // log(meanDurMs), the lognormal mu
	cpuGA      stats.GammaParam // Marsaglia–Tsang constants for the
	cpuGB      stats.GammaParam // four per-function Beta shapes
	memGA      stats.GammaParam
	memGB      stats.GammaParam
}

// sharedUtilG are the gamma constants of the shared latent Beta(1.6, 3.2)
// factor every function's utilization pair mixes in.
var sharedUtilG = [2]stats.GammaParam{stats.NewGammaParam(1.6), stats.NewGammaParam(3.2)}

// buildProfiles draws every function's latent profile from the shared
// profile stream (seeded with cfg.Seed directly). The draw order is part
// of the generator's determinism contract: every generation path starts
// from this exact sequence. Per-request randomness does NOT continue on
// this stream — each function draws from two private streams derived
// from (Seed, function), so emission, calibration, and pod scans can
// each walk exactly the draws they need.
func buildProfiles(rng *stats.Rand, cfg GeneratorConfig) ([]fnProfile, float64) {
	profiles := make([]fnProfile, cfg.Functions)
	var totalWeight float64
	for i := range profiles {
		p := &profiles[i]
		// Heavy-tailed per-function scale: most functions are short, a few
		// are orders of magnitude longer (the trace's long tail).
		p.meanDurMs = rng.Pareto(4, 1.6)
		if p.meanDurMs > 60000 {
			p.meanDurMs = 60000
		}
		// Longer functions tend to run on larger flavors, as production
		// traces show; this keeps billable-time rounding a second-order
		// effect on aggregate billable resources (§2.5).
		fi := pickFlavorIndex(rng)
		if p.meanDurMs > 200 && fi < len(DefaultFlavors)-1 {
			fi++
		}
		if p.meanDurMs > 2000 && fi < len(DefaultFlavors)-1 {
			fi++
		}
		if p.meanDurMs < 10 && fi > 0 {
			fi--
		}
		if fi += cfg.FlavorBias; fi < 0 {
			fi = 0
		} else if fi > len(DefaultFlavors)-1 {
			fi = len(DefaultFlavors) - 1
		}
		p.flavor = DefaultFlavors[fi]
		p.sigma = rng.Uniform(0.3, 0.9)
		// Low utilizations: Beta shapes with mean ≈ 0.25–0.45 and a wide
		// spread, so that well over half of requests sit below 50%.
		p.cpuUtilA = rng.Uniform(1.0, 2.2)
		p.cpuUtilB = rng.Uniform(1.8, 3.8)
		p.memUtilA = rng.Uniform(1.0, 2.0)
		p.memUtilB = rng.Uniform(2.0, 4.2)
		p.initMs = rng.Uniform(50, 600)
		// Pod sizes: mean requests per pod follows 1/coldStartRate on
		// average but varies per function, giving Figure 4 its mix of
		// well-amortized and poorly-amortized sandboxes.
		p.podSizeMean = 1 + rng.Pareto(1.0, 1.3)/cfg.ColdStartRate*1.2
		// Zipf-ish popularity.
		p.weight = 1 / math.Pow(float64(i+1), cfg.ZipfExponent)
		totalWeight += p.weight

		// Pure arithmetic (no draws), so the profile stream stays aligned.
		p.logMeanDur = math.Log(p.meanDurMs)
		p.cpuGA = stats.NewGammaParam(p.cpuUtilA)
		p.cpuGB = stats.NewGammaParam(p.cpuUtilB)
		p.memGA = stats.NewGammaParam(p.memUtilA)
		p.memGB = stats.NewGammaParam(p.memUtilB)
	}
	return profiles, totalWeight
}

// requestCounts assigns request counts per function proportionally to
// weight, distributing the rounding remainder round-robin.
func requestCounts(cfg GeneratorConfig, profiles []fnProfile, totalWeight float64) []int {
	counts := make([]int, cfg.Functions)
	assigned := 0
	for i := range profiles {
		n := int(float64(cfg.Requests) * profiles[i].weight / totalWeight)
		counts[i] = n
		assigned += n
	}
	for i := 0; assigned < cfg.Requests; i = (i + 1) % cfg.Functions {
		counts[i]++
		assigned++
	}
	return counts
}

// timingSeed and utilSeed derive a function's two private streams from
// the trace seed. Timing (pod boundaries, arrivals, durations, inits)
// and utilization (the three Betas per request) are decorrelated
// streams, so a walker that only needs the trace's shape — the
// calibration sweep, the pod-metadata scan — replays the timing stream
// alone and never pays for the gamma draws.
func timingSeed(seed uint64, fn int) uint64 {
	return stats.MixSeed(stats.MixSeed(seed, 1), uint64(fn))
}

func utilSeed(seed uint64, fn int) uint64 {
	return stats.MixSeed(stats.MixSeed(seed, 2), uint64(fn))
}

// timingCursor is one function's per-request timing step over its
// private timing stream: pod boundary, cold-start init, raw duration,
// and arrival advance. It is the single owner of the timing draw
// order — full emission (fnEmitter), the calibration sweep, and the
// pod walks (TimingCursor) all advance it — so every generation path
// agrees on the trace's shape by construction.
type timingCursor struct {
	rng       stats.Rand
	p         *fnProfile
	remaining int     // requests not yet assigned to a pod
	podLeft   int     // requests still to emit from the current pod
	arrival   float64 // ms offset of the next request
	podID     int     // id of the most recently opened pod (global numbering)
	initMs    float64 // current pod's initialization draw
}

// newTimingCursor positions a cursor at the start of function fn's
// generation block. It consumes the block-leading arrival-offset draw.
func newTimingCursor(seed uint64, fn int, p *fnProfile, count, podBase int) timingCursor {
	c := timingCursor{rng: *stats.NewRand(timingSeed(seed, fn)), p: p, remaining: count, podID: podBase}
	c.arrival = c.rng.Uniform(0, 60_000) // ms offset for function's first pod
	return c
}

// step draws the function's next request timing: its arrival and raw
// (unrescaled) duration in milliseconds, and whether it opens a pod —
// whose id and initialization draw are then c.podID and c.initMs. It
// reports false once the function's request budget is spent. Within a
// pod arrivals strictly increase, and consecutive pods never move
// backwards in time, so a function's whole emission is time-ordered.
func (c *timingCursor) step() (arrivalMs, durMs float64, cold, ok bool) {
	if c.podLeft == 0 {
		if c.remaining <= 0 {
			return 0, 0, false, false
		}
		c.podID++
		size := podSize(&c.rng, c.p.podSizeMean)
		if size > c.remaining {
			size = c.remaining
		}
		c.initMs = math.Max(20, c.rng.Normal(c.p.initMs, c.p.initMs*0.25))
		c.podLeft = size
		c.remaining -= size
		cold = true
	}
	durMs = c.rng.LogNormal(c.p.logMeanDur, c.p.sigma)
	if durMs < 0.05 {
		durMs = 0.05
	}
	arrivalMs = c.arrival
	// Next arrival within the pod: short think time keeps the pod warm;
	// occasionally long gaps end pods in reality but pod membership is
	// already decided here.
	c.arrival += durMs + c.rng.Exp(200)
	c.podLeft--
	if c.podLeft == 0 {
		c.arrival += c.rng.Exp(2000) // idle gap between pods
	}
	return arrivalMs, durMs, cold, true
}

// fnEmitter generates one function's raw (unrescaled) requests: the
// timing step plus the per-request utilization draws from the
// function's second private stream. FunctionStream emits through it
// and rescales on the way out.
type fnEmitter struct {
	timingCursor
	util stats.Rand
	fn   int
	corr float64 // cfg.UtilCorrelation
}

func newFnEmitter(seed uint64, fn int, p *fnProfile, count int, corr float64, podBase int) fnEmitter {
	return fnEmitter{
		timingCursor: newTimingCursor(seed, fn, p, count, podBase),
		util:         *stats.NewRand(utilSeed(seed, fn)),
		fn:           fn,
		corr:         corr,
	}
}

// next writes the function's next raw request into *r and reports
// whether one was emitted. Emitting straight into the caller's Request
// keeps the hot path free of per-pod buffers.
func (e *fnEmitter) next(r *Request) bool {
	arrivalMs, durMs, cold, ok := e.step()
	if !ok {
		return false
	}
	cpuU, memU := correlatedUtils(&e.util, e.p, e.corr)
	f := e.p.flavor
	*r = Request{
		FnID:       e.fn,
		PodID:      e.podID,
		Start:      time.Duration(arrivalMs * float64(time.Millisecond)),
		Duration:   time.Duration(durMs * float64(time.Millisecond)),
		AllocCPU:   f.VCPU,
		AllocMemMB: f.MemMB,
		MemUsedMB:  memU * f.MemMB,
	}
	r.CPUTime = time.Duration(cpuU * f.VCPU * durMs * float64(time.Millisecond))
	if cold {
		r.ColdStart = true
		r.InitDuration = time.Duration(e.initMs * float64(time.Millisecond))
	}
	return true
}

// Generate produces a synthetic trace under cfg: GenerateStream's
// request sequence, collected into a slice pre-sized to cfg.Requests.
// The result is sorted by arrival time and always passes
// (*Trace).Validate.
func Generate(cfg GeneratorConfig) *Trace {
	return CollectN(GenerateStream(cfg), cfg.Requests)
}

// pickFlavorIndex draws a flavor index according to flavorWeights.
func pickFlavorIndex(rng *stats.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, w := range flavorWeights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(DefaultFlavors) - 1
}

// podSize draws the number of requests a sandbox serves before it is
// reclaimed. Production pod sizes are heavy-tailed: a large minority of
// sandboxes serve only a handful of requests (so their cold start never
// amortizes — Figure 4's 42.1%), while a few serve thousands. A lognormal
// with a wide sigma reproduces that mix while keeping the requested mean.
func podSize(rng *stats.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	const sigma = 2.2
	// E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) = mean - 1.
	mu := math.Log(mean-1) - sigma*sigma/2
	n := 1 + int(rng.LogNormal(mu, sigma))
	if n > 1_000_000 {
		n = 1_000_000
	}
	return n
}

// correlatedUtils draws a (cpu, mem) utilization pair with a shared latent
// Beta factor so the pair exhibits the trace's moderate positive
// correlation without a strong linear relationship. All shapes are ≥ 1,
// so every Beta goes through the precomputed gamma constants.
func correlatedUtils(rng *stats.Rand, p *fnProfile, w float64) (cpuU, memU float64) {
	shared := rng.BetaP(sharedUtilG[0], sharedUtilG[1])
	cpu := rng.BetaP(p.cpuGA, p.cpuGB)
	mem := rng.BetaP(p.memGA, p.memGB)
	cpuU = clamp01(w*shared + (1-w)*cpu)
	memU = clamp01(w*shared + (1-w)*mem)
	return cpuU, memU
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// rescaled scales one duration by the rescale factor k, flooring the
// result at one microsecond. Emission and the timing walk both rescale
// through it, so they agree to the nanosecond.
func rescaled(d time.Duration, k float64) time.Duration {
	if d = time.Duration(float64(d) * k); d <= 0 {
		d = time.Microsecond
	}
	return d
}
