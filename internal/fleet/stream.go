package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// This file is the cluster replay, over a trace.Source, with
// memory bounded by the pod count (placement metadata) and the live
// simulation state rather than the request count. Simulate runs a
// recorded trace through it.
//
// The pipeline makes two passes over the source. Pass 1 builds per-pod
// placement metadata (flavor, first arrival, last turnaround end,
// request count — everything placeAll needs, and nothing per-request),
// then runs the sequential placement pass. Generator and scenario
// sources hand that metadata over from a timing-only pod walk
// (trace.PodScanner); recorded traces are scanned request by request.
// Pass 2 re-opens the source and routes each request, still in global
// arrival order, to its host: inline with one worker, otherwise into
// per-shard bounded channels whose workers advance their hosts' private
// clocks concurrently with generation, so host simulation overlaps
// trace synthesis instead of waiting for it. Per-host results are
// merged in host order, so the report is independent of the worker
// count.

const (
	// streamBatchSize is how many requests travel per channel send;
	// batching amortizes channel synchronization without meaningfully
	// adding buffered memory.
	streamBatchSize = 512
	// streamChannelDepth bounds each shard's queue of in-flight batches.
	// Together with streamBatchSize it caps the feeder/worker decoupling
	// at a few hundred kilobytes per shard, whatever the trace size.
	streamChannelDepth = 4
	// cancelCheckMask gates how often the streaming loops poll their
	// context: every (mask+1) requests. Cancellation latency is
	// therefore bounded to that many source pulls plus the in-flight
	// channel batches — the promptness contract the daemon's job
	// cancellation tests pin — at a per-request cost of one mask test.
	cancelCheckMask = 0x3ff
)

// streamItem is one routed request: the pod carries the placement
// decision, the request the work.
type streamItem struct {
	p *pod
	r trace.Request
}

// podIndex resolves request pod IDs to their placement record. Generator
// streams number pods densely (1..N), so the hot-path lookup is a flat
// slice index; sparse ID spaces (recorded traces) fall back to a map.
type podIndex struct {
	dense []*pod
	base  int
	byID  map[int]*pod
}

func buildPodIndex(pods []*pod) podIndex {
	if len(pods) == 0 {
		return podIndex{byID: map[int]*pod{}}
	}
	min, max := pods[0].id, pods[0].id
	for _, p := range pods {
		if p.id < min {
			min = p.id
		}
		if p.id > max {
			max = p.id
		}
	}
	if max-min+1 == len(pods) {
		dense := make([]*pod, len(pods))
		ok := true
		for _, p := range pods {
			if dense[p.id-min] != nil {
				ok = false // duplicate ID: not actually dense
				break
			}
			dense[p.id-min] = p
		}
		if ok {
			return podIndex{dense: dense, base: min}
		}
	}
	byID := make(map[int]*pod, len(pods))
	for _, p := range pods {
		byID[p.id] = p
	}
	return podIndex{byID: byID}
}

func (ix *podIndex) get(id int) *pod {
	if ix.dense != nil {
		i := id - ix.base
		if i < 0 || i >= len(ix.dense) {
			return nil
		}
		return ix.dense[i]
	}
	return ix.byID[id]
}

// scanPods builds the placement metadata: every pod in order of first
// arrival, with its flavor, extent, and request count — but no
// per-request state. When the stream can enumerate its pods directly
// (trace.PodScanner — calibrated generator and compiled scenario
// streams can, from a timing-only walk), the per-request scan is
// skipped entirely; the metadata is identical by the generators'
// contract, which TestPodScanMatchesRequestScan pins. Otherwise it
// streams the trace once and enforces the replay input contract:
// requests sorted by arrival, per-pod flavors constant. Cancelling ctx
// stops that scan within cancelCheckMask+1 pulls.
func scanPods(ctx context.Context, s trace.Stream) ([]*pod, int, error) {
	if sc, ok := s.(trace.PodScanner); ok {
		metas := sc.PodScan()
		pods := make([]*pod, len(metas))
		podArr := make([]pod, len(metas))
		total := 0
		for i, m := range metas {
			p := &podArr[i]
			*p = pod{
				id:       m.ID,
				fnID:     m.FnID,
				vcpu:     m.VCPU,
				memMB:    m.MemMB,
				initMs:   m.Init,
				first:    m.First,
				last:     m.Last,
				nreqs:    m.NReqs,
				host:     -1,
				idleFrom: -1,
			}
			pods[i] = p
			total += m.NReqs
		}
		return pods, total, nil
	}
	return scanPodsSlow(ctx, s)
}

// scanPodsSlow is the per-request fallback scan for streams that cannot
// enumerate their pods: recorded traces, and any stream wrapped without
// forwarding its pod walk.
func scanPodsSlow(ctx context.Context, s trace.Stream) ([]*pod, int, error) {
	byID := make(map[int]*pod)
	var pods []*pod
	var prev time.Duration
	n := 0
	next := trace.NextIntoFunc(s)
	var r trace.Request
	for next(&r) {
		if n&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if n > 0 && r.Start < prev {
			return nil, 0, fmt.Errorf("fleet: trace not sorted by arrival (request %d at %v after %v)",
				n, r.Start, prev)
		}
		prev = r.Start
		p := byID[r.PodID]
		if p == nil {
			p = &pod{
				id:       r.PodID,
				fnID:     r.FnID,
				vcpu:     r.AllocCPU,
				memMB:    r.AllocMemMB,
				initMs:   r.InitDuration,
				first:    r.Start,
				last:     r.Start + r.Turnaround(),
				host:     -1,
				idleFrom: -1,
			}
			byID[r.PodID] = p
			pods = append(pods, p)
		} else if r.AllocCPU != p.vcpu || r.AllocMemMB != p.memMB {
			return nil, 0, fmt.Errorf("fleet: pod %d changes flavor mid-stream (request %d: %gx%gMB vs %gx%gMB)",
				r.PodID, n, r.AllocCPU, r.AllocMemMB, p.vcpu, p.memMB)
		}
		if end := r.Start + r.Turnaround(); end > p.last {
			p.last = end
		}
		p.nreqs++
		n++
	}
	return pods, n, nil
}

// SimulateStream replays a re-openable request stream through the
// cluster and returns the cluster-wide report — byte-identical for any
// worker count — without ever holding the trace in memory. The source is opened twice (the
// placement scan and the replay must see the same sequence; for seeded
// generators reopening just re-derives the stream). Host workers
// simulate concurrently with the second pass, so trace synthesis and
// cluster replay overlap.
//
// Cancelling ctx makes the call return ctx.Err() promptly: both passes
// poll the context every cancelCheckMask+1 requests, so a cancelled
// simulation pulls at most that many further events from the source
// (plus the batches already in flight to the shard workers) before
// unwinding. The context never affects a completed report — only
// whether one is produced.
func SimulateStream(ctx context.Context, cfg Config, src trace.Source) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	if src == nil {
		return Report{}, fmt.Errorf("fleet: nil stream source")
	}
	if ctx == nil {
		return Report{}, fmt.Errorf("fleet: nil context")
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Pass 1: placement. Pod metadata is the only thing retained.
	s1, err := src()
	if err != nil {
		return Report{}, err
	}
	pods, total, err := scanPods(ctx, s1)
	if err != nil {
		return Report{}, err
	}
	if total == 0 {
		return Report{}, ErrEmptyTrace
	}
	_, ps := placeAll(cfg, pods)

	idx := buildPodIndex(pods)
	rejectedReqs := 0
	for _, p := range pods {
		if p.host < 0 {
			rejectedReqs += p.nreqs
		}
	}

	results := make([]hostResult, cfg.Hosts)
	if workers == 1 {
		// Single worker: feed the sims inline. No goroutines, channels, or
		// batch copies — the feeder/worker handoff only buys overlap when
		// there is a second CPU to overlap onto, and the report is
		// worker-count independent either way.
		s2, err := src()
		if err != nil {
			return Report{}, err
		}
		sims := make([]*hostSim, cfg.Hosts)
		next := trace.NextIntoFunc(s2)
		seen := 0
		var r trace.Request
		for next(&r) {
			if seen&cancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return Report{}, err
				}
			}
			seen++
			p := idx.get(r.PodID)
			if p == nil {
				return Report{}, fmt.Errorf("fleet: stream changed between passes (unknown pod %d)", r.PodID)
			}
			if p.host < 0 {
				continue
			}
			sim := sims[p.host]
			if sim == nil {
				sim = newHostSim(cfg, p.host)
				sim.seedFaults(p.host)
				sims[p.host] = sim
			}
			sim.feed(p, &r)
		}
		if seen != total {
			return Report{}, fmt.Errorf("fleet: stream changed between passes (%d requests, then %d)", total, seen)
		}
		for h, sim := range sims {
			if sim != nil {
				results[h] = sim.finish()
			}
		}
		return mergeReport(cfg, workers, total, ps, rejectedReqs, results)
	}

	// Pass 2: route the stream into per-shard bounded channels; workers
	// advance their hosts while the feeder is still generating.
	shards := make([]chan []streamItem, workers)
	for i := range shards {
		shards[i] = make(chan []streamItem, streamChannelDepth)
	}
	// free recycles batches between the feeder and the workers. Unlike a
	// sync.Pool it is local to this call, so the batches — and the pods
	// their stale items point at — die with the simulation instead of
	// surviving into the next collections.
	free := make(chan []streamItem, workers*(streamChannelDepth+2))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sims := make(map[int]*hostSim)
			for batch := range shards[w] {
				for i := range batch {
					it := &batch[i]
					sim := sims[it.p.host]
					if sim == nil {
						sim = newHostSim(cfg, it.p.host)
						sim.seedFaults(it.p.host)
						sims[it.p.host] = sim
					}
					sim.feed(it.p, &it.r)
				}
				select {
				case free <- batch[:0]:
				default:
				}
			}
			for h, sim := range sims {
				results[h] = sim.finish()
			}
		}(w)
	}
	abort := func(err error) (Report, error) {
		for _, ch := range shards {
			close(ch)
		}
		wg.Wait()
		return Report{}, err
	}

	s2, err := src()
	if err != nil {
		return abort(err)
	}
	batches := make([][]streamItem, workers)
	next := trace.NextIntoFunc(s2)
	seen := 0
	var r trace.Request
	for next(&r) {
		if seen&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return abort(err)
			}
		}
		seen++
		p := idx.get(r.PodID)
		if p == nil {
			return abort(fmt.Errorf("fleet: stream changed between passes (unknown pod %d)", r.PodID))
		}
		if p.host < 0 {
			continue
		}
		sh := p.host % workers
		b := batches[sh]
		if b == nil {
			select {
			case b = <-free:
			default:
				b = make([]streamItem, 0, streamBatchSize)
			}
		}
		b = append(b, streamItem{p: p, r: r})
		if len(b) >= streamBatchSize {
			shards[sh] <- b
			b = nil
		}
		batches[sh] = b
	}
	if seen != total {
		return abort(fmt.Errorf("fleet: stream changed between passes (%d requests, then %d)", total, seen))
	}
	for sh, b := range batches {
		if len(b) > 0 {
			shards[sh] <- b
		}
		close(shards[sh])
	}
	wg.Wait()

	return mergeReport(cfg, workers, total, ps, rejectedReqs, results)
}

// SimulateScenarioStream is SimulateScenario on the streaming path:
// the scenario's trace is synthesized lazily and consumed by
// SimulateStream, so the workload never materializes. The report is
// byte-identical to SimulateScenario's. Cancellation follows
// SimulateStream's contract: ctx.Err() returns promptly.
func SimulateScenarioStream(ctx context.Context, cfg Config, sc scenario.Scenario, scfg scenario.Config) (Report, error) {
	rep, err := SimulateStream(ctx, cfg, sc.Source(scfg))
	rep.Scenario = sc.Name
	return rep, err
}

// SimulatePlanStream replays a pre-compiled scenario plan
// (scenario.Scenario.Compile). It is SimulateScenarioStream minus the
// per-call tenant resolution and calibration sweep — the variant the
// daemon's plan cache and the optimizer's per-sweep compilation reuse —
// and produces the byte-identical report, because a plan's Source
// openings are identical to the scenario's own.
func SimulatePlanStream(ctx context.Context, cfg Config, plan *scenario.Plan) (Report, error) {
	if plan == nil {
		return Report{}, fmt.Errorf("fleet: nil scenario plan")
	}
	rep, err := SimulateStream(ctx, cfg, plan.Source())
	rep.Scenario = plan.Name()
	return rep, err
}
