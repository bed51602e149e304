package fleet_test

import (
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/scenario/diffsim"
	"slscost/internal/trace"
)

// TestSimulateStreamExactTie pins tie handling against the
// differential oracle: two requests from different pods arriving at
// the exact same nanosecond — rare in generated traces but expected at
// 10M+ requests once float arrivals quantize — execute in trace order.
// The flavors are asymmetric and the tied demand exceeds host
// capacity, so any other order changes which request the admission-
// time contention factor stretches, and with it billing; the oracle,
// which seeds arrivals in trace order, must then agree exactly.
func TestSimulateStreamExactTie(t *testing.T) {
	const tie = 1000 * time.Millisecond
	tr := &trace.Trace{Requests: []trace.Request{
		// Pod 1 (1 vCPU) arrives first overall; pod 2 (4 vCPU) second.
		{PodID: 1, FnID: 0, Start: 0, Duration: 50 * time.Millisecond,
			CPUTime: 10 * time.Millisecond, AllocCPU: 1, AllocMemMB: 2048,
			MemUsedMB: 100, ColdStart: true, InitDuration: 100 * time.Millisecond},
		{PodID: 2, FnID: 1, Start: 100 * time.Millisecond, Duration: 50 * time.Millisecond,
			CPUTime: 10 * time.Millisecond, AllocCPU: 4, AllocMemMB: 4096,
			MemUsedMB: 100, ColdStart: true, InitDuration: 100 * time.Millisecond},
		// The exact tie, in *reverse* pod-first-arrival order: the
		// 4-vCPU pod's request precedes the 1-vCPU pod's in the trace.
		{PodID: 2, FnID: 1, Start: tie, Duration: 200 * time.Millisecond,
			CPUTime: 40 * time.Millisecond, AllocCPU: 4, AllocMemMB: 4096, MemUsedMB: 100},
		{PodID: 1, FnID: 0, Start: tie, Duration: 200 * time.Millisecond,
			CPUTime: 40 * time.Millisecond, AllocCPU: 1, AllocMemMB: 2048, MemUsedMB: 100},
	}}
	for _, workers := range []int{1, 4} {
		pol, err := fleet.NewPolicy("bin-pack") // both pods land on host 0
		if err != nil {
			t.Fatal(err)
		}
		cfg := fleet.Config{
			Hosts: 2, Host: fleet.HostSpec{VCPU: 4, MemMB: 32768}, Policy: pol,
			Profile: core.AWS(), Workers: workers, Overcommit: 2, Seed: 1,
		}
		res, rep, err := diffsim.Verify(cfg, tr, 0)
		if res == nil {
			t.Fatal(err) // the simulation or the replay failed outright
		}
		if rep.ContentionDelaySeconds == 0 {
			t.Fatal("test construction broken: the tie never contends, so order is unobservable")
		}
		if err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
