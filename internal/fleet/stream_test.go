package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// streamTestConfig returns a fresh config (policies are stateful, so
// every simulation gets its own instance).
func streamTestConfig(t *testing.T, policy string, workers int) Config {
	t.Helper()
	pol, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Hosts:      6,
		Host:       DefaultHostSpec(),
		Policy:     pol,
		Profile:    core.AWS(),
		Workers:    workers,
		Overcommit: 2,
		Seed:       20260613,
	}
}

// renderReport normalizes the one field that legitimately differs
// between runs being compared (the worker count is printed in the
// header) — callers comparing equal worker counts get the full text.
func renderReport(rep Report) string {
	var buf bytes.Buffer
	rep.WriteText(&buf)
	return buf.String()
}

// TestSimulateStreamMatchesSimulate pins SimulateStream's two pass-2 feeds
// against each other: for every catalog scenario, the report of the
// single-worker inline feed is byte-identical (WriteText, worker count
// normalized) to the four-worker channel pipeline's.
func TestSimulateStreamMatchesSimulate(t *testing.T) {
	for _, sc := range scenario.Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			scfg := scenario.DefaultConfig()
			scfg.Base.Requests = 4000

			inline, err := SimulateScenarioStream(context.Background(), streamTestConfig(t, "least-loaded", 1), sc, scfg)
			if err != nil {
				t.Fatal(err)
			}
			piped, err := SimulateScenarioStream(context.Background(), streamTestConfig(t, "least-loaded", 4), sc, scfg)
			if err != nil {
				t.Fatal(err)
			}
			piped.Workers = inline.Workers
			if a, b := renderReport(inline), renderReport(piped); a != b {
				t.Errorf("channel pipeline drifted from the inline feed:\ninline:\n%s\npiped:\n%s", a, b)
			}
		})
	}
}

// TestSimulateStreamRawTrace checks the raw-generator path and the
// materialized-trace adapter: Simulate(tr) and
// SimulateStream(context.Background(), SourceOf(tr)) agree byte-for-byte, as does
// SimulateStream over GenerateSource.
func TestSimulateStreamRawTrace(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 5000
	tr := trace.Generate(gen)

	rep, err := Simulate(streamTestConfig(t, "bin-pack", 3), tr)
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := SimulateStream(context.Background(), streamTestConfig(t, "bin-pack", 3), trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	fromGen, err := SimulateStream(context.Background(), streamTestConfig(t, "bin-pack", 3), trace.GenerateSource(gen))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderReport(rep), renderReport(fromTrace); a != b {
		t.Errorf("SourceOf path drifted:\n%s\nvs\n%s", a, b)
	}
	if a, b := renderReport(rep), renderReport(fromGen); a != b {
		t.Errorf("GenerateSource path drifted:\n%s\nvs\n%s", a, b)
	}
}

// TestStreamLatencyQuantilesWorkerIndependent is the histogram-merge
// property behind the latency accounting: because per-host latencies
// accumulate into fixed logarithmic histograms and merge by integer
// bucket addition in host order, every latency quantile — and the
// exactly tracked mean/min/max — is bit-identical for 1, 4, and 8
// workers.
func TestStreamLatencyQuantilesWorkerIndependent(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 6000
	tr := trace.Generate(gen)

	base, err := Simulate(streamTestConfig(t, "least-loaded", 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if base.Latency.N != base.Served {
		t.Fatalf("latency histogram count %d != served %d", base.Latency.N, base.Served)
	}
	for _, workers := range []int{1, 4, 8} {
		srep, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", workers), trace.SourceOf(tr))
		if err != nil {
			t.Fatal(err)
		}
		// Summary is a flat struct of floats; == catches any drift in
		// any quantile, the mean, min, max, or the count.
		if srep.Latency != base.Latency {
			t.Errorf("workers=%d: latency summary drifted:\n%+v\nvs\n%+v",
				workers, srep.Latency, base.Latency)
		}
		if srep.ContentionSlowdownP99 != base.ContentionSlowdownP99 {
			t.Errorf("workers=%d: slowdown p99 drifted: %v vs %v",
				workers, srep.ContentionSlowdownP99, base.ContentionSlowdownP99)
		}
	}
}

// TestSimulateStreamWorkerCountIndependent pins the sharding
// invariant on the streaming path: the report is identical for any
// worker count (only the printed worker number differs).
func TestSimulateStreamWorkerCountIndependent(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 4000
	var base string
	for i, workers := range []int{1, 2, 7} {
		rep, err := SimulateStream(context.Background(), streamTestConfig(t, "round-robin", workers), trace.GenerateSource(gen))
		if err != nil {
			t.Fatal(err)
		}
		rep.Workers = 0 // normalize the only legitimately varying field
		s := renderReport(rep)
		if i == 0 {
			base = s
			continue
		}
		if s != base {
			t.Errorf("workers=%d report differs:\n%s\nvs\n%s", workers, s, base)
		}
	}
}

// TestSimulateStreamStatefulPolicy pins that the stateful round-robin
// policy behaves identically on both paths (placement runs once, in
// the same order).
func TestSimulateStreamStatefulPolicy(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	tr := trace.Generate(gen)
	rep, err := Simulate(streamTestConfig(t, "round-robin", 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := SimulateStream(context.Background(), streamTestConfig(t, "round-robin", 2), trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderReport(rep), renderReport(srep); a != b {
		t.Errorf("round-robin drifted:\n%s\nvs\n%s", a, b)
	}
}

// TestSimulateStreamErrors covers the streaming path's failure modes.
func TestSimulateStreamErrors(t *testing.T) {
	cfg := streamTestConfig(t, "least-loaded", 2)

	if _, err := SimulateStream(context.Background(), cfg, nil); err == nil {
		t.Error("nil source: expected error")
	}
	empty := trace.SourceOf(&trace.Trace{})
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), empty); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("empty source: got %v, want ErrEmptyTrace", err)
	}

	unsorted := &trace.Trace{Requests: []trace.Request{
		{PodID: 1, Start: 100, Duration: 1, AllocCPU: 1, AllocMemMB: 128},
		{PodID: 1, Start: 50, Duration: 1, AllocCPU: 1, AllocMemMB: 128},
	}}
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), trace.SourceOf(unsorted)); err == nil ||
		!strings.Contains(err.Error(), "not sorted") {
		t.Errorf("unsorted source: got %v", err)
	}

	flavorFlip := &trace.Trace{Requests: []trace.Request{
		{PodID: 1, Start: 50, Duration: 1, AllocCPU: 1, AllocMemMB: 128},
		{PodID: 1, Start: 100, Duration: 1, AllocCPU: 2, AllocMemMB: 128},
	}}
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), trace.SourceOf(flavorFlip)); err == nil ||
		!strings.Contains(err.Error(), "changes flavor") {
		t.Errorf("flavor flip: got %v", err)
	}

	// A source that yields different sequences on its two opens must be
	// rejected, not silently mis-simulated.
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 500
	big := trace.Generate(gen)
	small := &trace.Trace{Requests: big.Requests[:100]}
	opens := 0
	fickle := func() (trace.Stream, error) {
		opens++
		if opens == 1 {
			return trace.FromTrace(big), nil
		}
		return trace.FromTrace(small), nil
	}
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), fickle); err == nil ||
		!strings.Contains(err.Error(), "changed between passes") {
		t.Errorf("fickle source: got %v", err)
	}
}

// cancelAtStream counts every pull from the wrapped stream on a shared
// counter and fires cancel exactly once when the counter reaches the
// trigger point.
type cancelAtStream struct {
	inner  trace.Stream
	pulls  *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (cs *cancelAtStream) Next() (trace.Request, bool) {
	if cs.pulls.Add(1) == cs.at {
		cs.cancel()
	}
	return cs.inner.Next()
}

// TestSimulateStreamCancelBounded is the cancellation regression test:
// cancelling a 1M-request streamed simulation mid-replay must return
// context.Canceled after a bounded number of further source events —
// not after draining the remaining trace. The bound is the polling
// interval plus the batches already routed to shard channels, with
// generous slack; an unbounded drain would blow it by hundreds of
// thousands of events.
func TestSimulateStreamCancelBounded(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 1_000_000
	gen.Seed = 20260613

	// Cancel mid pass 2: after the full placement scan (1M pulls) plus
	// 100k replayed events.
	var pulls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := int64(gen.Requests + 100_000)
	src := func() (trace.Stream, error) {
		s, err := trace.GenerateSource(gen)()
		if err != nil {
			return nil, err
		}
		return &cancelAtStream{inner: s, pulls: &pulls, at: trigger, cancel: cancel}, nil
	}
	_, err := SimulateStream(ctx, streamTestConfig(t, "least-loaded", 4), src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SimulateStream: got %v, want context.Canceled", err)
	}
	// Polling happens every cancelCheckMask+1 events and each of the 4
	// shard channels can hold streamChannelDepth batches; 64k of slack
	// is more than an order of magnitude above both.
	if got, max := pulls.Load(), trigger+64_000; got > max {
		t.Errorf("cancelled stream pulled %d events, want <= %d (bounded cancellation)", got, max)
	}

	// Cancel mid pass 1 (the placement scan): same promptness contract.
	pulls.Store(0)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	src2 := func() (trace.Stream, error) {
		s, err := trace.GenerateSource(gen)()
		if err != nil {
			return nil, err
		}
		return &cancelAtStream{inner: s, pulls: &pulls, at: 100_000, cancel: cancel2}, nil
	}
	if _, err := SimulateStream(ctx2, streamTestConfig(t, "least-loaded", 4), src2); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan-phase cancel: got %v, want context.Canceled", err)
	}
	if got, max := pulls.Load(), int64(100_000+64_000); got > max {
		t.Errorf("scan-phase cancel pulled %d events, want <= %d", got, max)
	}

	// An already-cancelled context returns before pulling the source at all.
	done, doneCancel := context.WithCancel(context.Background())
	doneCancel()
	pulls.Store(0)
	src3 := func() (trace.Stream, error) {
		s, err := trace.GenerateSource(gen)()
		if err != nil {
			return nil, err
		}
		return &cancelAtStream{inner: s, pulls: &pulls, at: -1, cancel: func() {}}, nil
	}
	if _, err := SimulateStream(done, streamTestConfig(t, "least-loaded", 4), src3); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled SimulateStream: got %v, want context.Canceled", err)
	}
	if got := pulls.Load(); got > 1024 {
		t.Errorf("pre-cancelled stream pulled %d events, want ~0", got)
	}
}

// hiddenScanSource wraps every opening of src in a Next-only stream,
// hiding its pod walk (and NextInto) so the simulator's placement pass
// falls back to the per-request scan.
func hiddenScanSource(src trace.Source) trace.Source {
	return func() (trace.Stream, error) {
		s, err := src()
		if err != nil {
			return nil, err
		}
		return struct{ trace.Stream }{s}, nil
	}
}

// checkPodScan asserts that src's openings enumerate their pods and that
// the enumeration equals what the per-request fallback scan
// reconstructs from the emitted requests — same pods, same order, same
// flavors, extents, and request counts.
func checkPodScan(t *testing.T, src trace.Source) {
	t.Helper()
	s1, err := src()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s1.(trace.PodScanner); !ok {
		t.Fatalf("%T does not implement PodScanner", s1)
	}
	fast, fastTotal, err := scanPods(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := src()
	if err != nil {
		t.Fatal(err)
	}
	slow, slowTotal, err := scanPodsSlow(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}

	if fastTotal != slowTotal {
		t.Fatalf("request totals differ: fast %d, slow %d", fastTotal, slowTotal)
	}
	if len(fast) != len(slow) {
		t.Fatalf("pod counts differ: fast %d, slow %d", len(fast), len(slow))
	}
	for i := range fast {
		f, s := fast[i], slow[i]
		if f.id != s.id || f.fnID != s.fnID || f.vcpu != s.vcpu || f.memMB != s.memMB ||
			f.initMs != s.initMs || f.first != s.first || f.last != s.last || f.nreqs != s.nreqs {
			t.Fatalf("pod %d differs:\nfast: %+v\nslow: %+v", i, *f, *s)
		}
	}
}

// TestPodScanMatchesRequestScan pins the PodScanner fast path on every
// source that has one: a calibrated generator stream, and a compiled
// plan of every catalog scenario at two sizes, authored and fanned out
// into a multi-tenant mix. The timing-only walk must reproduce the
// per-request scan pod by pod.
func TestPodScanMatchesRequestScan(t *testing.T) {
	t.Run("generator", func(t *testing.T) {
		cfg := trace.DefaultGeneratorConfig()
		cfg.Requests = 20000
		cfg.Functions = 150
		cfg.Seed = 99
		checkPodScan(t, trace.GenerateSource(cfg))
	})
	for _, sc := range scenario.Catalog() {
		for _, n := range []int{2000, 50000} {
			for _, tenants := range []int{1, 3} {
				sc, n, tenants := sc, n, tenants
				t.Run(fmt.Sprintf("%s/requests=%d/tenants=%d", sc.Name, n, tenants), func(t *testing.T) {
					scfg := scenario.DefaultConfig()
					scfg.Base.Requests = n
					scfg.Base.Seed = 7
					scfg.Tenants = tenants
					plan, err := sc.Compile(scfg)
					if err != nil {
						t.Fatal(err)
					}
					checkPodScan(t, plan.Source())
				})
			}
		}
	}
	// A one-nanosecond horizon collapses every function's first gap
	// below a nanosecond, so pods of different functions and tenants
	// open at the same instant: the walk must order the ties as the
	// merge does.
	t.Run("exact-ties", func(t *testing.T) {
		sc, _ := scenario.ByName("multi-tenant")
		scfg := scenario.DefaultConfig()
		scfg.Base.Requests = 5000
		scfg.Horizon = time.Nanosecond
		plan, err := sc.Compile(scfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := plan.Source()()
		if err != nil {
			t.Fatal(err)
		}
		pods := s.(trace.PodScanner).PodScan()
		if len(pods) < 2 || pods[0].First != pods[1].First {
			t.Fatal("test construction broken: no tie between the first two pods")
		}
		checkPodScan(t, plan.Source())
	})
}

// TestPlanPodScanReportByteEqual pins the pod walk end to end: a plan
// simulated through its walk reports byte-for-byte what it reports
// when the walk is hidden and placement scans every request.
func TestPlanPodScanReportByteEqual(t *testing.T) {
	for _, sc := range scenario.Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			scfg := scenario.DefaultConfig()
			scfg.Base.Requests = 4000
			scfg.Tenants = 2
			plan, err := sc.Compile(scfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				walked, err := SimulatePlanStream(context.Background(), streamTestConfig(t, "least-loaded", workers), plan)
				if err != nil {
					t.Fatal(err)
				}
				scanned, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", workers),
					hiddenScanSource(plan.Source()))
				if err != nil {
					t.Fatal(err)
				}
				scanned.Scenario = plan.Name()
				a, err := json.Marshal(walked)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(scanned)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("workers=%d: walked and scanned reports differ:\nwalked:  %s\nscanned: %s", workers, a, b)
				}
			}
		})
	}
}
