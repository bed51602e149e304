package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"slscost/internal/billing"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/opt"
	"slscost/internal/scenario"
	"slscost/internal/scenario/faults"
	"slscost/internal/simtime"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// probeReps is how many times each layer probe repeats; the probe
// reports the median.
const probeReps = 5

// probeInput is what the per-layer probes of a workload run on: its
// generator configuration, its scenario (steady's raw generator is
// probed through the steady catalog scenario over the same base), and
// one representative simulation.
type probeInput struct {
	gen      trace.GeneratorConfig
	scenario string
	scfg     scenario.Config
	cfg      fleet.Config
	src      trace.Source // nil: the compiled scenario's source
	seed     uint64
}

// layerMetrics fills the per-layer metrics of a traced run, writes the
// per-layer table and the spans under outDir, and prints the table.
func layerMetrics(ctx context.Context, name string, seed uint64, in instance, res loopResult,
	tr *tracer, t *tally, outDir string, m map[string]metric, w io.Writer) error {
	rep, err := probeLayers(ctx, in.probe(), m)
	if err != nil {
		return err
	}
	sw, ok := in.(*sweeper)
	if !ok {
		i, err := newSweep(ctx, seed)
		if err != nil {
			return err
		}
		sw = i.(*sweeper)
	}
	if err := probeOpt(ctx, sw, m); err != nil {
		return err
	}
	dm, ok := in.(*daemonW)
	if !ok {
		// Any other workload measures the API layers on a short
		// closed loop of the daemon workload's jobs.
		if dm, err = startDaemon(ctx, seed); err != nil {
			return err
		}
		dm.loop(ctx, 0, minOps, nil, t)
		dm.close()
	}
	if err := apiMetrics(dm.jobs, m); err != nil {
		return err
	}
	if len(res.lat) == 0 || len(res.tracedLat) == 0 {
		return fmt.Errorf("traced run completed %d untraced and %d traced operations", len(res.lat), len(res.tracedLat))
	}
	m["bench.trace_overhead_ratio"] = metric{median(res.tracedLat) / median(res.lat), "x"}

	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d: traced %d of %d operations, median latency traced/untraced %.4f\n",
		name, seed, len(res.tracedLat), len(res.lat)+len(res.tracedLat), m["bench.trace_overhead_ratio"].Value)
	spans := tr.snapshot()
	writeLayerTable(&b, "layers of the traced operations", layerTable(spans, rootWall(spans)))
	fmt.Fprintf(&b, "# report counts of the representative simulation\n")
	fmt.Fprintf(&b, "fleet.evicted %d\nkeepalive.mode %s\nkeepalive.policy_functions %d\nkeepalive.policy_decisions %d\n"+
		"keepalive.policy_observations %d\nkeepalive.adaptive_learned_decisions %d\nkeepalive.bandit_explorations %d\n"+
		"keepalive.bandit_exploitations %d\nkeepalive.bandit_realized_cost %g\nkeepalive.bandit_regret %g\n",
		rep.EvictedSandboxes, rep.KeepAliveMode, rep.PolicyFunctions, rep.PolicyDecisions, rep.PolicyObservations,
		rep.AdaptiveLearnedDecisions, rep.BanditExplorations, rep.BanditExploitations, rep.BanditRealizedCost, rep.BanditRegret)
	rejected := 0
	for _, j := range dm.jobs {
		if j.rejected {
			rejected++
		}
	}
	fmt.Fprintf(&b, "jobs.rejected %d\n", rejected)
	io.WriteString(w, b.String())

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, name+"-layers.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	return writeSpansFile(filepath.Join(outDir, name+"-spans.jsonl"), spans)
}

func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rootWall is the summed duration of the spans without a parent: the
// time of the operations the layer shares are taken of.
func rootWall(spans []span) time.Duration {
	var wall time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.busy()
		}
	}
	return wall
}

// timeIt runs f probeReps times and returns the median duration.
func timeIt(name string, f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

func drain(s trace.Stream) int {
	next := trace.NextIntoFunc(s)
	var r trace.Request
	n := 0
	for next(&r) {
		n++
	}
	return n
}

// probeLayers times each layer's public entry point on the workload's
// inputs and returns the representative simulation's report.
func probeLayers(ctx context.Context, in probeInput, m map[string]metric) (fleet.Report, error) {
	var none fleet.Report
	var cal *trace.Calibration
	d, _ := timeIt("trace.Calibrate", func() error { cal = trace.Calibrate(in.gen); return nil })
	m["trace.calibrate_ms"] = metric{msOf(d), "ms"}
	n := 0
	d, _ = timeIt("trace.Stream", func() error { n = drain(cal.Stream()); return nil })
	m["trace.emit_ns_per_request"] = metric{float64(d) / float64(n), "ns"}
	d, _ = timeIt("trace.PodMetas", func() error { cal.PodMetas(); return nil })
	m["trace.podscan_ms"] = metric{msOf(d), "ms"}

	sc, ok := scenario.ByName(in.scenario)
	if !ok {
		return none, fmt.Errorf("unknown scenario %q", in.scenario)
	}
	var plan *scenario.Plan
	d, err := timeIt("scenario.Compile", func() (err error) { plan, err = sc.Compile(in.scfg); return err })
	if err != nil {
		return none, err
	}
	m["scenario.compile_ms"] = metric{msOf(d), "ms"}
	d, err = timeIt("scenario.Source", func() error {
		s, err := plan.Source()()
		if err == nil {
			n = drain(s)
		}
		return err
	})
	if err != nil {
		return none, err
	}
	m["scenario.retime_ns_per_request"] = metric{float64(d) / float64(n), "ns"}

	prof, err := faults.ByName(churnFaults)
	if err != nil {
		return none, err
	}
	d, err = timeIt("faults.Compile", func() error {
		_, err := faults.Compile(&prof.Spec, in.cfg.Hosts, in.scfg.EffectiveHorizon(), in.seed)
		return err
	})
	if err != nil {
		return none, err
	}
	m["faults.compile_ms"] = metric{msOf(d), "ms"}

	src := in.src
	if src == nil {
		src = plan.Source()
	}
	s, err := src()
	if err != nil {
		return none, err
	}
	rec := trace.Collect(s)
	d, err = timeIt("fleet.Place", func() error {
		cfg, err := withPolicy(in.cfg)
		if err == nil {
			_, err = fleet.Place(cfg, rec)
		}
		return err
	})
	if err != nil {
		return none, err
	}
	m["fleet.place_ms"] = metric{msOf(d), "ms"}
	replayAt := func(workers int) func() error {
		return func() error {
			cfg, err := withPolicy(in.cfg)
			if err == nil {
				cfg.Workers = workers
				_, err = fleet.SimulateStream(ctx, cfg, trace.SourceOf(rec))
			}
			return err
		}
	}
	w1, err := timeIt("fleet.SimulateStream", replayAt(1))
	if err != nil {
		return none, err
	}
	wn, err := timeIt("fleet.SimulateStream", replayAt(nproc))
	if err != nil {
		return none, err
	}
	m["fleet.replay_ns_per_request_w1"] = metric{float64(w1) / float64(rec.Len()), "ns"}
	m["fleet.parallel_speedup"] = metric{float64(w1) / float64(wn), "x"}

	rep, share, err := tracedReplay(ctx, in.cfg, src)
	if err != nil {
		return none, err
	}
	m["trace.pull_share"] = metric{share, "ratio"}
	m["fleet.sandboxes"] = metric{float64(rep.Sandboxes), "count"}
	m["fleet.cold_starts"] = metric{float64(rep.ColdStarts), "count"}
	m["fleet.expired"] = metric{float64(rep.ExpiredSandboxes), "count"}
	m["fleet.warm_ratio"] = metric{1 - rep.ColdStartRate(), "ratio"}
	m["fleet.accept_ratio"] = metric{float64(rep.Served) / float64(rep.Requests), "ratio"}

	ops, peak, d := probeWheel(rec, in.cfg.Profile.KeepAlive)
	m["simtime.ns_per_op"] = metric{float64(d) / float64(ops), "ns"}
	m["simtime.pending_peak"] = metric{float64(peak), "count"}
	calls, d, err := probeDeciders(rec, in.cfg, in.seed)
	if err != nil {
		return none, err
	}
	m["keepalive.decide_ns"] = metric{float64(d) / float64(calls), "ns"}

	model := in.cfg.Profile.Billing
	var cost float64 // summed so the charges are used
	d, _ = timeIt("billing.Bill", func() error {
		for _, r := range rec.Requests {
			cost += model.Bill(billing.MapRequest(model, r)).Total()
		}
		return nil
	})
	m["billing.bill_ns"] = metric{float64(d) / float64(rec.Len()), "ns"}

	lat := make([]float64, rec.Len())
	for i, r := range rec.Requests {
		lat[i] = msOf(r.Turnaround())
	}
	d, _ = timeIt("stats.Observe", func() error {
		h := stats.NewLogHist(fleet.LatencyHistConfig())
		for _, x := range lat {
			h.Observe(x)
		}
		return nil
	})
	m["stats.observe_ns"] = metric{float64(d) / float64(len(lat)), "ns"}
	perHost := make([]*stats.LogHist, in.cfg.Hosts)
	for h := range perHost {
		perHost[h] = stats.NewLogHist(fleet.LatencyHistConfig())
	}
	for i, r := range rec.Requests {
		perHost[r.PodID%len(perHost)].Observe(lat[i])
	}
	d, err = timeIt("stats.Merge", func() error {
		all := stats.NewLogHist(fleet.LatencyHistConfig())
		for _, h := range perHost {
			if err := all.Merge(h); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return none, err
	}
	m["stats.merge_us"] = metric{float64(d) / 1e3, "us"}
	return rep, nil
}

// tracedReplay runs the representative simulation with its source
// pulls sampled and returns the report and the median share of replay
// wall time spent pulling.
func tracedReplay(ctx context.Context, cfg fleet.Config, src trace.Source) (fleet.Report, float64, error) {
	var rep fleet.Report
	var shares []float64
	for i := 0; i < probeReps; i++ {
		c, err := withPolicy(cfg)
		if err != nil {
			return rep, 0, err
		}
		var p pulls
		t0 := time.Now()
		rep, err = fleet.SimulateStream(ctx, c, p.wrap(src))
		wall := time.Since(t0)
		if err != nil {
			return rep, 0, err
		}
		shares = append(shares, float64(p.estimate())/float64(wall))
	}
	return rep, median(shares), nil
}

// probeWheel drives a simtime.Clock from outside with the recorded
// trace's per-pod keep-alive pattern: before each arrival run the
// events due, cancel the pod's pending expiry, and schedule its
// completion, which schedules the expiry a keep-alive window later.
// It returns the clock operations made, the peak pending count and the
// time taken.
func probeWheel(rec *trace.Trace, ka keepalive.Policy) (ops, peak int, took time.Duration) {
	ttl := (ka.MinWindow + ka.MaxWindow) / 2
	maxPod := 0
	for _, r := range rec.Requests {
		maxPod = max(maxPod, r.PodID)
	}
	type pod struct{ expiry simtime.Handle }
	took, _ = timeIt("simtime.Clock", func() error {
		clock := simtime.NewClock()
		pods := make([]pod, maxPod+1)
		ops, peak = 0, 0
		expire := func(_ time.Duration, arg any) {
			arg.(*pod).expiry = simtime.Handle{}
			ops++
		}
		complete := func(now time.Duration, arg any) {
			p := arg.(*pod)
			p.expiry = clock.Schedule(now+ttl, expire, p)
			ops += 2 // the completion firing and the expiry scheduled
		}
		for _, r := range rec.Requests {
			clock.RunBefore(r.Start)
			p := &pods[r.PodID]
			if p.expiry.Active() {
				clock.Cancel(p.expiry)
				ops++
			}
			clock.Schedule(r.Start+r.InitDuration+r.Duration, complete, p)
			ops += 2
			peak = max(peak, clock.Pending())
		}
		clock.Run()
		return nil
	})
	return ops, peak, took
}

// probeDeciders builds one keep-alive decider per function from the
// workload's spec (static when it has none) and feeds it the recorded
// trace's idle gaps, one ObserveIdle and one Window per gap. It returns
// the calls made and the median time they took; building the deciders
// is not timed.
func probeDeciders(rec *trace.Trace, cfg fleet.Config, seed uint64) (int, time.Duration, error) {
	spec := cfg.KeepAlive
	if spec == nil {
		spec = &keepalive.Spec{Mode: keepalive.ModeStatic}
	}
	type gap struct {
		fn  int
		gap time.Duration
	}
	var gaps []gap
	lastEnd := map[int]time.Duration{}
	maxFn := 0
	for _, r := range rec.Requests {
		if end, ok := lastEnd[r.PodID]; ok && r.Start > end {
			gaps = append(gaps, gap{r.FnID, r.Start - end})
		}
		lastEnd[r.PodID] = r.Start + r.InitDuration + r.Duration
		maxFn = max(maxFn, r.FnID)
	}
	var ds []float64
	for i := 0; i < probeReps; i++ {
		deciders := make([]keepalive.Decider, maxFn+1)
		for fn := range deciders {
			var err error
			if deciders[fn], err = spec.NewDecider(cfg.Profile.KeepAlive, keepalive.FunctionSeed(seed, 0, fn)); err != nil {
				return 0, 0, err
			}
		}
		rng := stats.NewRand(seed)
		t0 := time.Now()
		for _, g := range gaps {
			dc := deciders[g.fn]
			dc.ObserveIdle(g.gap)
			dc.Window(rng, 1)
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return 2 * len(gaps), time.Duration(median(ds)), nil
}

// probeOpt times isolated sweep evaluations through opt.SweepRange and
// compares their sum with the pooled sweep's wall time.
func probeOpt(ctx context.Context, sw *sweeper, m map[string]metric) error {
	cfg := sw.cfg
	cfg.Workers = 1
	grid := cfg.GridSize(sw.space)
	var evals []float64
	perIndex := make([][]float64, grid)
	for pass := 0; len(evals) < minOps; pass++ {
		for i := 0; i < grid; i++ {
			t0 := time.Now()
			_, err := opt.SweepRange(ctx, cfg, sw.space, i, i+1)
			d := msOf(time.Since(t0))
			if err != nil {
				return err
			}
			evals = append(evals, d)
			perIndex[i] = append(perIndex[i], d)
		}
	}
	p50, err := percentile(evals, 50)
	if err != nil {
		return err
	}
	p90, err := percentile(evals, 90)
	if err != nil {
		return err
	}
	var isolated float64
	for _, ds := range perIndex {
		isolated += median(ds)
	}
	wall, err := timeIt("opt.Sweep", func() error {
		_, _, err := sw.sweep(ctx, nproc)
		return err
	})
	if err != nil {
		return err
	}
	m["opt.eval_ms_p50"] = metric{p50.Value, "ms"}
	m["opt.eval_ms_p90"] = metric{p90.Value, "ms"}
	m["opt.pool_efficiency"] = metric{isolated / (msOf(wall) * float64(nproc)), "ratio"}
	return nil
}

// apiMetrics reads the API and job-queue metrics off the daemon jobs.
func apiMetrics(recs []jobRecord, m map[string]metric) error {
	var submit, wait, runT, lag []float64
	var hits, lookups, bytes, n int
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		submit = append(submit, msOf(r.submit))
		wait = append(wait, msOf(r.started.Sub(r.created)))
		runT = append(runT, msOf(r.finished.Sub(r.started)))
		lag = append(lag, msOf(r.doneAt.Sub(r.finished)))
		hits += r.cache.Hits
		lookups += r.cache.Hits + r.cache.Misses
		bytes += r.eventBytes
		n++
	}
	for _, p := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"api.submit_ms_p50", submit, 50},
		{"jobs.queue_wait_ms_p50", wait, 50},
		{"jobs.queue_wait_ms_p90", wait, 90},
		{"jobs.run_ms_p50", runT, 50},
		{"api.stream_lag_ms_p50", lag, 50},
	} {
		v, err := percentile(p.xs, p.p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = metric{v.Value, "ms"}
	}
	if lookups == 0 {
		return fmt.Errorf("no plan-cache lookups in %d jobs", n)
	}
	m["api.plan_cache_hit_ratio"] = metric{float64(hits) / float64(lookups), "ratio"}
	m["api.event_bytes_per_job"] = metric{float64(bytes) / float64(n), "B"}
	return nil
}
