package fleet

import (
	"context"
	"testing"

	"slscost/internal/core"
	"slscost/internal/keepalive"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// Tests for the keep-alive decision layer's fleet wiring: adaptive and
// bandit runs must be worker-count independent and stream==materialized
// exactly like static ones, and an explicit static spec must be
// indistinguishable from no spec at all.

func deciderTestConfig(t *testing.T, mode keepalive.Mode, workers int) Config {
	t.Helper()
	pol, err := NewPolicy("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Hosts: 4, Host: DefaultHostSpec(), Policy: pol,
		Profile: core.AWS(), Workers: workers, Overcommit: 2, Seed: 7,
	}
	seed := cfg.Seed
	cfg.KeepAlive = &keepalive.Spec{Mode: mode, Seed: &seed}
	return cfg
}

func deciderTestTrace() *trace.Trace {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	gen.Seed = 7
	return trace.Generate(gen)
}

// TestAdaptiveWorkerIndependence: adaptive and bandit reports are
// identical for 1, 4, and 8 workers — the decider streams are keyed by
// (seed, host, function), never by scheduling.
func TestAdaptiveWorkerIndependence(t *testing.T) {
	tr := deciderTestTrace()
	for _, mode := range []keepalive.Mode{keepalive.ModeAdaptive, keepalive.ModeBandit} {
		t.Run(string(mode), func(t *testing.T) {
			base, err := Simulate(deciderTestConfig(t, mode, 1), tr)
			if err != nil {
				t.Fatal(err)
			}
			if base.PolicyDecisions == 0 || base.PolicyFunctions == 0 {
				t.Fatalf("%s run made no decisions: %+v", mode, base)
			}
			for _, workers := range []int{4, 8} {
				rep, err := Simulate(deciderTestConfig(t, mode, workers), tr)
				if err != nil {
					t.Fatal(err)
				}
				rep.Workers = base.Workers // the only field allowed to differ
				if rep != base {
					t.Errorf("%s report differs at %d workers:\n%+v\nvs 1 worker:\n%+v", mode, workers, rep, base)
				}
			}
		})
	}
}

// TestAdaptiveStreamMatchesMaterialized: the single-worker inline feed
// and the four-worker channel pipeline replay the decider state
// machines identically.
func TestAdaptiveStreamMatchesMaterialized(t *testing.T) {
	tr := deciderTestTrace()
	for _, mode := range []keepalive.Mode{keepalive.ModeAdaptive, keepalive.ModeBandit} {
		t.Run(string(mode), func(t *testing.T) {
			inline, err := SimulateStream(context.Background(), deciderTestConfig(t, mode, 1), trace.SourceOf(tr))
			if err != nil {
				t.Fatal(err)
			}
			piped, err := SimulateStream(context.Background(), deciderTestConfig(t, mode, 4), trace.SourceOf(tr))
			if err != nil {
				t.Fatal(err)
			}
			piped.Workers = inline.Workers // the only field allowed to differ
			if piped != inline {
				t.Errorf("%s channel-pipeline report differs from the inline feed:\n%+v\nvs\n%+v", mode, piped, inline)
			}
		})
	}
}

// TestStaticSpecMatchesNilSpec: an explicit static spec is the legacy
// path — same struct, same rendered bytes as no spec at all.
func TestStaticSpecMatchesNilSpec(t *testing.T) {
	tr := deciderTestTrace()
	cfg := deciderTestConfig(t, keepalive.ModeStatic, 2)
	withSpec, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg = deciderTestConfig(t, keepalive.ModeStatic, 2)
	cfg.KeepAlive = nil
	without, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if withSpec != without {
		t.Errorf("static spec report differs from nil spec:\n%+v\nvs\n%+v", withSpec, without)
	}
	if withSpec.KeepAliveMode != "static" || withSpec.PolicyDecisions != 0 {
		t.Errorf("static run carries decider telemetry: %+v", withSpec)
	}
}

// TestDeciderSpecValidatedByConfig: a bad spec is rejected at
// Config.Validate, before any host runs.
func TestDeciderSpecValidatedByConfig(t *testing.T) {
	cfg := deciderTestConfig(t, keepalive.ModeAdaptive, 1)
	cfg.KeepAlive.Seed = nil
	if _, err := Simulate(cfg, deciderTestTrace()); err == nil {
		t.Error("seedless adaptive spec accepted")
	}
}

// BenchmarkAdaptiveReplay measures a replay of a recorded four-tenant
// flash crowd under adaptive keep-alive on one worker: one decider per
// (host, function) pair, each consulted at every idle transition.
// Benchguard pins its B/op, so per-decider state that grows with the
// histogram's declared range rather than the gaps it has seen shows up
// here.
func BenchmarkAdaptiveReplay(b *testing.B) {
	sc, ok := scenario.ByName("flash-crowd")
	if !ok {
		b.Fatal("unknown scenario flash-crowd")
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = 20_000
	scfg.Base.Seed = 17
	scfg.Tenants = 4
	tr, err := sc.Trace(scfg)
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := NewPolicy("least-loaded")
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{
			Hosts: 16, Host: DefaultHostSpec(), Policy: pol, Profile: core.AWS(),
			Workers: 1, Overcommit: 2, Seed: seed,
			KeepAlive: &keepalive.Spec{Mode: keepalive.ModeAdaptive, Seed: &seed},
		}
		rep, err := Simulate(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		if rep.AdaptiveLearnedDecisions == 0 {
			b.Fatal("adaptive replay learned nothing")
		}
	}
	b.SetBytes(int64(scfg.Base.Requests)) // requests/sec
}
