package fleet

import (
	"context"
	"time"

	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// This file is the scenario-driven replay surface: Simulate fed by the
// internal/scenario engine instead of a recorded trace, plus the exported
// placement/seeding hooks the differential verification harness
// (internal/scenario/diffsim) replays hosts independently from.

// SimulateScenario synthesizes sc's trace under scfg and replays it
// through Simulate, labeling the report with the scenario name. The
// synthesized trace is returned alongside the report so callers can
// reuse it (CSV export, differential verification) without paying for a
// second synthesis.
func SimulateScenario(cfg Config, sc scenario.Scenario, scfg scenario.Config) (Report, *trace.Trace, error) {
	tr, err := sc.Trace(scfg)
	if err != nil {
		return Report{}, nil, err
	}
	rep, err := Simulate(cfg, tr)
	rep.Scenario = sc.Name
	return rep, tr, err
}

// PodAssignment is one pod's placement outcome, exposed for the
// differential harness: the trace request indices the pod serves (in
// arrival order) and the host the sequential placement pass bound it
// to (-1 when every host rejected it).
type PodAssignment struct {
	PodID int
	FnID  int
	Host  int
	// VCPU and MemMB are the pod's flavor; InitDuration is its first
	// request's initialization time (what every cold start of the pod
	// pays, re-colds included).
	VCPU         float64
	MemMB        float64
	InitDuration time.Duration
	// Requests are indices into the trace, in arrival order.
	Requests []int
}

// Place runs only the sequential placement pass of Simulate and returns
// every pod's assignment in first-arrival order — the exact decisions
// the full simulation replays, since placement is a pure function of
// (cfg, trace). The trace is validated as Simulate validates it.
// internal/scenario/diffsim uses this to rebuild each host's workload
// for an independent replay.
func Place(cfg Config, tr *trace.Trace) ([]PodAssignment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pods, _, err := scanPods(context.Background(), trace.FromTrace(tr))
	if err != nil {
		return nil, err
	}
	placeAll(cfg, pods)
	out := make([]PodAssignment, len(pods))
	slot := make(map[int]int, len(pods)) // pod ID → index in out
	idx := make([]int, tr.Len())         // one backing array, sliced per pod
	off := 0
	for i, p := range pods {
		end := off + p.nreqs
		out[i] = PodAssignment{
			PodID:        p.id,
			FnID:         p.fnID,
			Host:         p.host,
			VCPU:         p.vcpu,
			MemMB:        p.memMB,
			InitDuration: p.initMs,
			Requests:     idx[off:off:end],
		}
		slot[p.id] = i
		off = end
	}
	for ri, r := range tr.Requests {
		a := &out[slot[r.PodID]]
		a.Requests = append(a.Requests, ri)
	}
	return out, nil
}

// ShardSeed returns the seed of host h's private random stream inside
// Simulate. An external replay drawing keep-alive windows from
// stats.NewRand(ShardSeed(seed, h)) in event order reproduces the
// simulation's draws exactly.
func ShardSeed(seed uint64, host int) uint64 {
	return mix(seed, uint64(host)+1)
}
