package api

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"slscost/internal/keepalive"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

func TestDecodeJobSpec(t *testing.T) {
	tests := []struct {
		name    string
		body    string
		wantErr string // substring; "" means success
	}{
		{"minimal", `{"method":"fleet.simulate","seed":7}`, ""},
		{"with params", `{"method":"opt.sweep","seed":1,"params":{"requests":1000}}`, ""},
		{"missing seed", `{"method":"fleet.simulate"}`, "explicit seed"},
		{"unknown field", `{"method":"fleet.simulate","seed":7,"sead":8}`, "unknown field"},
		{"no namespace", `{"method":"simulate","seed":7}`, "not namespace.method"},
		{"uppercase method", `{"method":"Fleet.Simulate","seed":7}`, "not namespace.method"},
		{"trailing garbage", `{"method":"fleet.simulate","seed":7}{}`, "trailing data"},
		{"trailing brackets", `{"method":"fleet.simulate","seed":1}]]]garbage`, "trailing data"},
		{"trailing braces", `{"method":"fleet.simulate","seed":1}}}`, "trailing data"},
		{"not json", `hello`, "decoding job spec"},
		{"wrong seed type", `{"method":"fleet.simulate","seed":"7"}`, "decoding job spec"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := DecodeJobSpec([]byte(tc.body))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("DecodeJobSpec: %v", err)
				}
				if spec.Seed == nil {
					t.Fatal("decoded spec has nil seed")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("DecodeJobSpec error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("marshaled %s, want \"1m30s\"", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"2h45m"`), &d); err != nil {
		t.Fatal(err)
	}
	if time.Duration(d) != 2*time.Hour+45*time.Minute {
		t.Fatalf("unmarshaled %v", time.Duration(d))
	}
	if err := json.Unmarshal([]byte(`90`), &d); err == nil {
		t.Fatal("numeric duration should be rejected")
	}
	if err := json.Unmarshal([]byte(`"soon"`), &d); err == nil {
		t.Fatal("unparsable duration should be rejected")
	}
}

func TestPlanKey(t *testing.T) {
	base := trace.DefaultGeneratorConfig()
	base.Requests = 1000
	base.Seed = 42
	cfg := scenario.Config{Base: base, Tenants: 1}

	if k1, k2 := PlanKey("steady", cfg), PlanKey("steady", cfg); k1 != k2 {
		t.Fatalf("identical configs key differently:\n%s\n%s", k1, k2)
	}
	if PlanKey("steady", cfg) == PlanKey("flash-crowd", cfg) {
		t.Fatal("scenario name not part of the key")
	}
	seeded := cfg
	seeded.Base.Seed = 43
	if PlanKey("steady", cfg) == PlanKey("steady", seeded) {
		t.Fatal("generator seed not part of the key")
	}
	horizoned := cfg
	horizoned.Horizon = time.Hour
	if PlanKey("steady", cfg) == PlanKey("steady", horizoned) {
		t.Fatal("horizon not part of the key")
	}
	tenanted := cfg
	tenanted.Tenants = 4
	if PlanKey("steady", cfg) == PlanKey("steady", tenanted) {
		t.Fatal("tenant fan-out not part of the key")
	}
}

// TestPlanKeyIgnoresKeepAliveSpec pins the cache-sharing contract: the
// keep-alive decider spec acts inside the simulation and cannot change
// the synthesized trace, so specs differing only in keep-alive mode
// must resolve to the same compiled-plan key (a static and an adaptive
// job over the same workload share one plan).
func TestPlanKeyIgnoresKeepAliveSpec(t *testing.T) {
	p := SimulateParams{Requests: 1000}
	_, _, plain, err := SimulateConfigs(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	p.KeepAlive = &keepalive.Spec{Mode: keepalive.ModeAdaptive}
	_, _, adaptive, err := SimulateConfigs(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if PlanKey("steady", plain) != PlanKey("steady", adaptive) {
		t.Fatal("keep-alive spec fragmented the plan cache key")
	}
}

// TestSimulateConfigsKeepAlive: the spec is wired through with the job
// seed inherited when absent, and a bad spec is rejected before any
// run starts.
func TestSimulateConfigsKeepAlive(t *testing.T) {
	p := SimulateParams{KeepAlive: &keepalive.Spec{Mode: keepalive.ModeBandit}}
	fc, _, _, err := SimulateConfigs(p, 123)
	if err != nil {
		t.Fatal(err)
	}
	if fc.KeepAlive == nil || fc.KeepAlive.Mode != keepalive.ModeBandit {
		t.Fatalf("spec not wired through: %+v", fc.KeepAlive)
	}
	if fc.KeepAlive.Seed == nil || *fc.KeepAlive.Seed != 123 {
		t.Errorf("spec seed = %v, want inherited job seed 123", fc.KeepAlive.Seed)
	}
	if p.KeepAlive.Seed != nil {
		t.Error("SimulateConfigs mutated the caller's spec")
	}
	own := uint64(9)
	p.KeepAlive = &keepalive.Spec{Mode: keepalive.ModeAdaptive, Seed: &own}
	if fc, _, _, err = SimulateConfigs(p, 123); err != nil {
		t.Fatal(err)
	}
	if *fc.KeepAlive.Seed != 9 {
		t.Errorf("explicit spec seed overridden: %d", *fc.KeepAlive.Seed)
	}
	p.KeepAlive = &keepalive.Spec{Mode: "thermostat"}
	if _, _, _, err := SimulateConfigs(p, 123); err == nil {
		t.Error("bad keep-alive spec accepted")
	}
}

func TestSimulateConfigsDefaults(t *testing.T) {
	fc, sc, scfg, err := SimulateConfigs(SimulateParams{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	// The zero params must resolve to the fleetsim CLI defaults, so a
	// remote run with no overrides reproduces the CLI's default run.
	if fc.Hosts != 32 || fc.Overcommit != 2 || fc.Seed != 99 {
		t.Fatalf("unexpected fleet config: %+v", fc)
	}
	if fc.Profile.Name != "aws-lambda" {
		t.Fatalf("default platform = %q", fc.Profile.Name)
	}
	if sc.Name != "steady" {
		t.Fatalf("default scenario = %q", sc.Name)
	}
	if scfg.Base.Requests != 200000 || scfg.Base.Seed != 99 || scfg.Tenants != 1 {
		t.Fatalf("unexpected scenario config: %+v", scfg)
	}
}

func TestSimulateConfigsRejects(t *testing.T) {
	tests := []struct {
		name string
		p    SimulateParams
		want string
	}{
		{"platform", SimulateParams{Platform: "nope"}, "unknown platform"},
		{"policy", SimulateParams{Policy: "nope"}, "unknown placement policy"},
		{"scenario", SimulateParams{Scenario: "nope"}, "unknown scenario"},
		{"overcommit", SimulateParams{Overcommit: 0.5}, "below 1"},
		{"tenants", SimulateParams{Tenants: -1}, "below 1"},
		{"horizon", SimulateParams{Horizon: Duration(-time.Second)}, "negative"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := SimulateConfigs(tc.p, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestSweepConfigs(t *testing.T) {
	cfg, space, err := SweepConfigs(SweepParams{
		Scenarios:   []string{"steady"},
		Requests:    5000,
		Policies:    []string{"least-loaded"},
		TTLs:        []string{"platform", "60s"},
		Overcommits: []float64{1},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Scenarios) != 1 || cfg.Scenarios[0].Name != "steady" {
		t.Fatalf("scenarios = %+v", cfg.Scenarios)
	}
	if cfg.Seed != 7 || cfg.Scenario.Base.Seed != 7 || cfg.Scenario.Base.Requests != 5000 {
		t.Fatalf("unexpected config: %+v", cfg)
	}
	if len(space.Policies) != 1 || len(space.TTLs) != 2 || len(space.Overcommits) != 1 {
		t.Fatalf("unexpected space: %+v", space)
	}
	if _, _, err := SweepConfigs(SweepParams{Scenarios: []string{"nope"}}, 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, _, err := SweepConfigs(SweepParams{TTLs: []string{"soon"}}, 1); err == nil {
		t.Fatal("unparsable TTL accepted")
	}
	// The keep-alive mode axis passes through; garbage modes fail at
	// space validation inside opt, before any evaluation runs.
	_, space, err = SweepConfigs(SweepParams{KeepAliveModes: []string{"static", "adaptive"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(space.KeepAliveModes) != 2 {
		t.Fatalf("keep-alive modes not wired: %+v", space.KeepAliveModes)
	}
	if err := space.Validate(); err != nil {
		t.Fatal(err)
	}
	_, space, err = SweepConfigs(SweepParams{KeepAliveModes: []string{"thermostat"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Validate(); err == nil {
		t.Fatal("unknown keep-alive mode survived space validation")
	}
}
