package fleet

import (
	"context"
	"testing"
	"testing/quick"

	"slscost/internal/core"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// Property: no placement policy ever over-commits a host's flavor
// capacity — at every placement decision, committed vCPU and memory stay
// within the host spec (ISSUE satellite). Exercised by replaying the
// placement pass with invariant checks after every pod.
func TestPlacementNeverOverCommits(t *testing.T) {
	prop := func(seed uint64, hostsRaw uint8, vcpuRaw, memRaw uint8) bool {
		hosts := 1 + int(hostsRaw%16)
		spec := HostSpec{
			VCPU:  1 + float64(vcpuRaw%16),
			MemMB: 1024 * (1 + float64(memRaw%32)),
		}
		cfg := trace.DefaultGeneratorConfig()
		cfg.Requests = 400
		cfg.Seed = seed
		tr := trace.Generate(cfg)
		pods, _, err := scanPods(context.Background(), trace.FromTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range PolicyNames() {
			policy, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			c := Config{
				Hosts: hosts, Host: spec, Policy: policy,
				Profile: core.AWS(), Seed: seed,
			}
			// Re-run placement pod by pod, checking the invariant after
			// each commitment (placeAll enforces Fits via the policies;
			// this verifies none of them cheats).
			for _, p := range pods {
				p.host = -1
			}
			view, _ := placeAll(c, pods)
			for h, load := range view.Hosts {
				if load.CommittedVCPU > spec.VCPU+capacityEpsilon {
					t.Logf("%s: host %d vCPU %v > %v", name, h, load.CommittedVCPU, spec.VCPU)
					return false
				}
				if load.CommittedMemMB > spec.MemMB+capacityEpsilon {
					t.Logf("%s: host %d mem %v > %v", name, h, load.CommittedMemMB, spec.MemMB)
					return false
				}
				if load.CommittedVCPU < -capacityEpsilon || load.CommittedMemMB < -capacityEpsilon {
					t.Logf("%s: host %d negative commitment %+v", name, h, load)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The mid-stream invariant (not just the final state): instrument a
// stepped replay asserting the running commitment never exceeds capacity
// after any single placement.
func TestPlacementMidStreamInvariant(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig()
	cfg.Requests = 3000
	cfg.Seed = 99
	tr := trace.Generate(cfg)
	spec := HostSpec{VCPU: 4, MemMB: 8192}
	for _, name := range PolicyNames() {
		policy, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		view := View{Hosts: make([]HostLoad, 4)}
		for i := range view.Hosts {
			view.Hosts[i].Spec = spec
		}
		// Place supplies the pods in first-arrival order; its own
		// placement decisions are ignored.
		pods, err := Place(Config{Hosts: 1, Host: spec, Policy: policy, Profile: core.AWS()}, tr)
		if err != nil {
			t.Fatal(err)
		}
		policy, err = NewPolicy(name) // fresh state for the stepped replay
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(1)
		for _, p := range pods {
			// No retirement at all: the worst case for capacity pressure.
			idx := policy.Place(&view, p.VCPU, p.MemMB, rng)
			if idx < 0 {
				continue
			}
			h := &view.Hosts[idx]
			h.CommittedVCPU += p.VCPU
			h.CommittedMemMB += p.MemMB
			h.Sandboxes++
			if h.CommittedVCPU > spec.VCPU+capacityEpsilon ||
				h.CommittedMemMB > spec.MemMB+capacityEpsilon {
				t.Fatalf("%s over-committed host %d: %+v", name, idx, *h)
			}
		}
	}
}

func TestPolicyCharacteristics(t *testing.T) {
	view := func() *View {
		v := &View{Hosts: make([]HostLoad, 3)}
		for i := range v.Hosts {
			v.Hosts[i].Spec = HostSpec{VCPU: 4, MemMB: 8192}
		}
		v.Hosts[0].CommittedVCPU = 3 // nearly full
		v.Hosts[2].CommittedVCPU = 1
		return v
	}

	ll, _ := NewPolicy("least-loaded")
	if got := ll.Place(view(), 1, 512, nil); got != 1 {
		t.Errorf("least-loaded picked host %d, want the empty host 1", got)
	}
	bp, _ := NewPolicy("bin-pack")
	if got := bp.Place(view(), 1, 512, nil); got != 0 {
		t.Errorf("bin-pack picked host %d, want the tightest host 0", got)
	}
	// bin-pack must still skip hosts the flavor no longer fits.
	if got := bp.Place(view(), 2, 512, nil); got != 2 {
		t.Errorf("bin-pack picked host %d for a 2-vCPU flavor, want host 2", got)
	}

	rr, _ := NewPolicy("round-robin")
	seq := []int{0, 1, 2, 0}
	for i, want := range seq {
		if got := rr.Place(view(), 0.5, 256, nil); got != want {
			t.Errorf("round-robin call %d placed on %d, want %d", i, got, want)
		}
	}

	rnd, _ := NewPolicy("random")
	rng := stats.NewRand(5)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		got := rnd.Place(view(), 0.5, 256, rng)
		if got < 0 || got > 2 {
			t.Fatalf("random placed on %d", got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Error("random policy never varied its choice over 100 draws")
	}

	// A flavor too large for every host is rejected by all policies.
	for _, name := range PolicyNames() {
		p, _ := NewPolicy(name)
		if got := p.Place(view(), 64, 512, rng); got != -1 {
			t.Errorf("%s placed an impossible flavor on host %d", name, got)
		}
	}
}

// TestPlaceGroupsPods pins Place's pod grouping: every trace request
// belongs to exactly one assignment, each assignment lists its own
// pod's requests in arrival order starting with the cold start, and
// assignments come in first-arrival order. The placement metadata
// behind them bounds every request: a pod's last turnaround end is at
// or after each of its requests' ends.
func TestPlaceGroupsPods(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig()
	cfg.Requests = 2000
	cfg.Seed = 5
	tr := trace.Generate(cfg)
	policy, err := NewPolicy("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	pods, err := Place(Config{Hosts: 4, Host: DefaultHostSpec(), Policy: policy, Profile: core.AWS()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := scanPods(context.Background(), trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, tr.Len())
	for i, p := range pods {
		if len(p.Requests) == 0 {
			t.Fatalf("pod %d has no requests", p.PodID)
		}
		if i > 0 && tr.Requests[pods[i-1].Requests[0]].Start > tr.Requests[p.Requests[0]].Start {
			t.Fatal("pods not sorted by first arrival")
		}
		for j, ri := range p.Requests {
			r := tr.Requests[ri]
			if r.PodID != p.PodID || r.FnID != p.FnID || r.AllocCPU != p.VCPU || r.AllocMemMB != p.MemMB {
				t.Fatalf("pod %d holds foreign request %d", p.PodID, ri)
			}
			if j == 0 && (!r.ColdStart || r.InitDuration != p.InitDuration) {
				t.Errorf("pod %d first request is not its cold start", p.PodID)
			}
			if j > 0 && ri <= p.Requests[j-1] {
				t.Fatalf("pod %d requests out of arrival order", p.PodID)
			}
			if end := r.Start + r.Turnaround(); end > meta[i].last {
				t.Errorf("pod %d last %v before request end %v", p.PodID, meta[i].last, end)
			}
			if seen[ri] {
				t.Fatalf("request %d assigned twice", ri)
			}
			seen[ri] = true
		}
	}
	for ri, ok := range seen {
		if !ok {
			t.Fatalf("request %d assigned to no pod", ri)
		}
	}
}
