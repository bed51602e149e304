package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/opt"
	"slscost/internal/scenario"
	"slscost/internal/scenario/diffsim"
	"slscost/internal/scenario/faults"
	"slscost/internal/trace"
)

const (
	policy = "least-loaded"
	// churnTenants fans the flash crowd into phase-shifted tenants, so
	// crowds arrive and abandon the warm pool several times per trace.
	churnTenants = 4
	churnFaults  = "crashes"
	// sweepRequests is the per-scenario volume of one sweep evaluation:
	// small, so fixed per-simulation costs weigh, and so a run holds
	// enough sweeps for a p90.
	sweepRequests = 2000
)

// fleetConfig is the cluster every workload runs on, apart from its
// host count: the default host shape, AWS billing, overcommit 2 and
// nproc workers.
func fleetConfig(hosts int, seed uint64) fleet.Config {
	return fleet.Config{
		Hosts:      hosts,
		Host:       fleet.DefaultHostSpec(),
		Profile:    core.AWS(),
		Overcommit: 2,
		Workers:    nproc,
		Seed:       seed,
	}
}

// withPolicy returns cfg with a fresh placement policy: policies may
// keep state and must not be shared between simulations.
func withPolicy(cfg fleet.Config) (fleet.Config, error) {
	p, err := fleet.NewPolicy(policy)
	cfg.Policy = p
	return cfg, err
}

// replay is a workload whose operation is one streamed cluster
// simulation of a fixed source: steady and churn.
type replay struct {
	cfg   fleet.Config
	src   trace.Source
	plan  *scenario.Plan // the plan churn's recording came from
	first *fleet.Report  // the first timed report; later ones must equal it
	in    probeInput
}

// newSteady streams the raw calibrated generator into 32 hosts with
// static keep-alive and no faults.
func newSteady(_ context.Context, seed uint64) (instance, error) {
	gen := trace.DefaultGeneratorConfig()
	gen.Seed = seed
	cfg := fleetConfig(32, seed)
	r := &replay{cfg: cfg, src: trace.GenerateSource(gen)}
	r.in = probeInput{gen: gen, scenario: "steady", scfg: scenario.Config{Base: gen},
		cfg: cfg, src: r.src, seed: seed}
	return r, nil
}

// newChurn records a four-tenant flash crowd once and replays the
// recording with adaptive keep-alive and host crashes on 16 hosts.
func newChurn(_ context.Context, seed uint64) (instance, error) {
	gen := trace.DefaultGeneratorConfig()
	gen.Seed = seed
	sc, _ := scenario.ByName("flash-crowd")
	scfg := scenario.Config{Base: gen, Tenants: churnTenants}
	plan, err := sc.Compile(scfg)
	if err != nil {
		return nil, err
	}
	s, err := plan.Source()()
	if err != nil {
		return nil, err
	}
	rec := trace.Collect(s)
	prof, err := faults.ByName(churnFaults)
	if err != nil {
		return nil, err
	}
	cfg := fleetConfig(16, seed)
	if cfg.Faults, err = faults.Compile(&prof.Spec, cfg.Hosts, scfg.EffectiveHorizon(), seed); err != nil {
		return nil, err
	}
	cfg.KeepAlive = &keepalive.Spec{Mode: keepalive.ModeAdaptive, Seed: &seed}
	r := &replay{cfg: cfg, src: trace.SourceOf(rec), plan: plan}
	r.in = probeInput{gen: gen, scenario: sc.Name, scfg: scfg, cfg: cfg, src: r.src, seed: seed}
	return r, nil
}

func (r *replay) warm(ctx context.Context) error { return warmOps(ctx, r.op) }

func (r *replay) timed(ctx context.Context, d time.Duration, tr *tracer, t *tally) loopResult {
	return runOps(ctx, d, tr, t, r.op)
}

func (r *replay) simulate(ctx context.Context, workers int, src trace.Source) (fleet.Report, error) {
	cfg, err := withPolicy(r.cfg)
	if err != nil {
		return fleet.Report{}, err
	}
	cfg.Workers = workers
	return fleet.SimulateStream(ctx, cfg, src)
}

func (r *replay) op(ctx context.Context, tr *tracer, run int) (int, int, error) {
	src := r.src
	var p pulls
	if tr != nil {
		src = p.wrap(src)
	}
	root := tr.begin("bench.replay", 0, run)
	id := tr.begin("fleet.SimulateStream", root, run)
	rep, err := r.simulate(ctx, nproc, src)
	tr.end(id)
	tr.sampled("trace.NextInto", id, run, p.n, p.estimate())
	tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	if r.first == nil {
		r.first = &rep
	} else if err := sameReport("repeated run", *r.first, rep); err != nil {
		return 0, 0, err
	}
	return rep.Requests, 1, nil
}

func (r *replay) check(ctx context.Context, t *tally) simOutputs {
	if r.first == nil {
		t.note("check", fmt.Errorf("no timed report to check"))
		return simOutputs{}
	}
	rep := *r.first
	w1, err := r.simulate(ctx, 1, r.src)
	if err == nil {
		err = sameReport(fmt.Sprintf("workers 1 vs %d", nproc), w1, rep)
	}
	t.note("check worker-count independence", err)
	if r.plan != nil {
		cfg, err := withPolicy(r.cfg)
		if err == nil {
			var mat fleet.Report
			if mat, err = fleet.SimulatePlanStream(ctx, cfg, r.plan); err == nil {
				labeled := rep
				labeled.Scenario = r.plan.Name()
				err = sameReport("recorded replay vs plan stream", labeled, mat)
			}
		}
		t.note("check stream == materialized", err)
	}
	cfg, err := withPolicy(r.cfg)
	if err == nil {
		_, _, err = diffsim.VerifyStream(ctx, cfg, r.src, 0)
	}
	t.note("check differential replay at zero delta", err)
	used, err := usedCPU(r.src)
	t.note("check input drain", err)
	return reportOutputs(rep, used)
}

func (r *replay) probe() probeInput { return r.in }
func (r *replay) close()            {}

// sweeper runs opt.Sweep over the default 24-candidate space on the
// steady and flash-crowd scenarios, from plans compiled in set-up.
type sweeper struct {
	cfg   opt.Config
	space opt.Space
	plans map[string]*scenario.Plan
	first []byte // WriteJSON of the first timed sweep
	sr    *opt.SweepResult
	seed  uint64
}

func newSweep(_ context.Context, seed uint64) (instance, error) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = sweepRequests
	gen.Seed = seed
	scs, err := scenario.Subset("steady", "flash-crowd")
	if err != nil {
		return nil, err
	}
	s := &sweeper{space: opt.DefaultSpace(), plans: map[string]*scenario.Plan{}, seed: seed}
	s.cfg = opt.Config{
		Profile:   core.AWS(),
		Hosts:     16,
		Scenarios: scs,
		Scenario:  scenario.Config{Base: gen},
		Seed:      seed,
		Workers:   nproc,
		Planner:   s.plan,
	}
	for _, sc := range scs {
		if s.plans[sc.Name], err = sc.Compile(s.cfg.Scenario); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// plan is the sweep's Planner: every scenario was compiled in set-up.
func (s *sweeper) plan(sc scenario.Scenario, _ scenario.Config) (*scenario.Plan, error) {
	if p := s.plans[sc.Name]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("scenario %s was not compiled in set-up", sc.Name)
}

func (s *sweeper) warm(ctx context.Context) error { return warmOps(ctx, s.op) }

func (s *sweeper) timed(ctx context.Context, d time.Duration, tr *tracer, t *tally) loopResult {
	return runOps(ctx, d, tr, t, s.op)
}

func (s *sweeper) sweep(ctx context.Context, workers int) (*opt.SweepResult, []byte, error) {
	cfg := s.cfg
	cfg.Workers = workers
	sr, err := opt.Sweep(ctx, cfg, s.space)
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	if err := sr.WriteJSON(&b); err != nil {
		return nil, nil, err
	}
	return sr, b.Bytes(), nil
}

func (s *sweeper) op(ctx context.Context, tr *tracer, run int) (int, int, error) {
	root := tr.begin("bench.sweep", 0, run)
	id := tr.begin("opt.Sweep", root, run)
	sr, doc, err := s.sweep(ctx, nproc)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	if s.first == nil {
		s.first, s.sr = doc, sr
	} else if !bytes.Equal(doc, s.first) {
		return 0, 0, fmt.Errorf("repeated sweep: document %.12s != %.12s", hashBytes(doc), hashBytes(s.first))
	}
	reqs := 0
	for _, res := range sr.Results {
		reqs += res.Report.Requests
	}
	return reqs, len(sr.Results), nil
}

func (s *sweeper) check(ctx context.Context, t *tally) simOutputs {
	if s.sr == nil {
		t.note("check", fmt.Errorf("no timed sweep to check"))
		return simOutputs{}
	}
	_, doc, err := s.sweep(ctx, 1)
	if err == nil && !bytes.Equal(doc, s.first) {
		err = fmt.Errorf("workers 1 vs %d: document %.12s != %.12s", nproc, hashBytes(doc), hashBytes(s.first))
	}
	t.note("check sweep worker-count independence", err)

	used := map[string]float64{}
	for name, p := range s.plans {
		used[name], err = usedCPU(p.Source())
		t.note("check input drain", err)
	}
	var billed, consumed float64
	for _, res := range s.sr.Results {
		billed += res.Report.BilledCPUSeconds
		consumed += used[res.Scenario]
	}
	out := simOutputs{Digest: hashBytes(s.first), CPUInflation: billed / consumed}
	if best, ok := s.sr.CheapestFrontier(); ok {
		out.CostPerMillion = best.Objectives.CostPerMillion
		out.ColdStartRate = best.Objectives.ColdStartRate
	}
	return out
}

// probe replays the flash-crowd plan on the cluster every workload
// shares (least-loaded, overcommit 2) with the sweep's 16 hosts.
func (s *sweeper) probe() probeInput {
	cfg := fleetConfig(s.cfg.Hosts, s.seed)
	return probeInput{gen: s.cfg.Scenario.Base, scenario: "flash-crowd", scfg: s.cfg.Scenario,
		cfg: cfg, src: s.plans["flash-crowd"].Source(), seed: s.seed}
}

func (s *sweeper) close() {}
