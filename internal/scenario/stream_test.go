package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"slscost/internal/trace"
)

// requestsDigest is the SHA-256 of a request sequence, one %+v line per
// request: every field, floats in their shortest exact form.
func requestsDigest(reqs []trace.Request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamMatchesTrace pins every catalog scenario's synthesized
// trace (as authored and fanned out to three tenants) to a SHA-256
// digest. The digests were captured when Trace was still a separate
// materialize-retime-sort implementation that matched Stream request
// for request, so folding Trace into a collect of Stream moved no
// byte; any later drift in re-timing, tenant planning, or the merge
// fails here. Both Trace and a plain Collect of Stream are checked.
func TestStreamMatchesTrace(t *testing.T) {
	want := map[string]string{
		"steady/tenants=1":       "cd32d42545e07241dd693eae2a987a032f9846b83cf1228cecc43a7a556b847b",
		"steady/tenants=3":       "e63e9015e3435a59e9f8c2a1515eb466a738858248ee5535ee4c58871f3c4cfb",
		"diurnal/tenants=1":      "d15b14f8daa6e873f780d20ed2ae972b440602cb3969151ae32dfbdfe496174a",
		"diurnal/tenants=3":      "8b6ef8e13ba813ebe323f8fd3ac806156c4d96e3f02ce62ed62334ff9b4fdd7f",
		"flash-crowd/tenants=1":  "f9d11c4f5c3aed331275a5ba44988d116f21944dedbf764a018d1614587dc325",
		"flash-crowd/tenants=3":  "805612a97d88d1db958df3eadd61a5cf13f3acf3d8346f2a0e0b49b34c0f8479",
		"bursty/tenants=1":       "5afac39837e94858344856293e8719f837b05fe9f0bfa877c890fb058a1a5929",
		"bursty/tenants=3":       "f54b2e1815f35ecb48fc4e38fd8ea85cf64d7bdf55761345a1d672c5ac80b9e9",
		"ramp/tenants=1":         "9404944213310676c9018b679b97ea2f82dfd5ad6013d2e6b4bd5852d0c3687d",
		"ramp/tenants=3":         "e1012332450d36d5d4310c8f0e15e1139b012dda1d10a5015e1c08fc342ace14",
		"multi-tenant/tenants=1": "067509ee424b0001834a2c5eef1df5b7ff56819dc00979f1a8d4275a57df77a3",
		"multi-tenant/tenants=3": "067509ee424b0001834a2c5eef1df5b7ff56819dc00979f1a8d4275a57df77a3",
	}
	for _, sc := range Catalog() {
		for _, tenants := range []int{1, 3} {
			key := fmt.Sprintf("%s/tenants=%d", sc.Name, tenants)
			cfg := DefaultConfig()
			cfg.Base.Requests = 4000
			cfg.Tenants = tenants
			tr, err := sc.Trace(cfg)
			if err != nil {
				t.Fatalf("%s: Trace: %v", key, err)
			}
			if tr.Len() != cfg.Base.Requests {
				t.Errorf("%s: Trace yielded %d requests, want %d", key, tr.Len(), cfg.Base.Requests)
			}
			if got := requestsDigest(tr.Requests); got != want[key] {
				t.Errorf("%s: Trace digest %s, want %s", key, got, want[key])
			}
			s, err := sc.Stream(cfg)
			if err != nil {
				t.Fatalf("%s: Stream: %v", key, err)
			}
			if got := requestsDigest(trace.Collect(s).Requests); got != want[key] {
				t.Errorf("%s: stream digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestStreamValidatesInput pins that Stream rejects the same malformed
// configurations Trace does, with an error rather than a panic.
func TestStreamValidatesInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Base.Requests = 0
	if _, err := (Scenario{Name: "x", Shape: Steady{}}).Stream(cfg); err == nil {
		t.Error("zero requests: expected error")
	}
	cfg = DefaultConfig()
	if _, err := (Scenario{Name: "x"}).Stream(cfg); err == nil {
		t.Error("shapeless scenario: expected error")
	}
}

// TestStreamOrdered pins the trace.Stream ordering contract on the
// scenario path, where re-timing replaces every arrival.
func TestStreamOrdered(t *testing.T) {
	sc, ok := ByName("multi-tenant")
	if !ok {
		t.Fatal("multi-tenant scenario missing")
	}
	cfg := DefaultConfig()
	cfg.Base.Requests = 5000
	s, err := sc.Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev, ok := s.Next()
	if !ok {
		t.Fatal("empty stream")
	}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.Start < prev.Start {
			t.Fatalf("arrival %v after %v", r.Start, prev.Start)
		}
		prev = r
	}
}

// TestPlanMatchesSource pins the compiled-plan contract: a Plan's
// openings emit the bit-identical sequence the scenario's own Source
// emits for the same Config, and repeated openings of one plan are
// identical to each other — the properties that make a daemon-cached
// plan indistinguishable from a fresh compilation.
func TestPlanMatchesSource(t *testing.T) {
	sc, ok := ByName("flash-crowd")
	if !ok {
		t.Fatal("flash-crowd missing from catalog")
	}
	cfg := DefaultConfig()
	cfg.Base.Requests = 4000
	cfg.Base.Seed = 20260613
	cfg.Tenants = 2

	plan, err := sc.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name() != sc.Name {
		t.Fatalf("plan name %q, want %q", plan.Name(), sc.Name)
	}
	open := func(src trace.Source) []trace.Request {
		s, err := src()
		if err != nil {
			t.Fatal(err)
		}
		var out []trace.Request
		for r, ok := s.Next(); ok; r, ok = s.Next() {
			out = append(out, r)
		}
		return out
	}
	want := open(sc.Source(cfg))
	for pass := 0; pass < 2; pass++ {
		got := open(plan.Source())
		if len(got) != len(want) {
			t.Fatalf("opening %d: %d requests, want %d", pass, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("opening %d: request %d = %+v, want %+v", pass, i, got[i], want[i])
			}
		}
	}
}
