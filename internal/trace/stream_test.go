package trace

import (
	"reflect"
	"testing"
)

// TestCollectFromTraceRoundTrip is the adapter round-trip property:
// Collect(FromTrace(tr)) reproduces tr exactly, for generated traces of
// several sizes including empty.
func TestCollectFromTraceRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 17, 5000} {
		cfg := DefaultGeneratorConfig()
		cfg.Requests = n
		tr := Generate(cfg)
		got := Collect(FromTrace(tr))
		if got.Len() != tr.Len() {
			t.Fatalf("requests=%d: round-trip length %d != %d", n, got.Len(), tr.Len())
		}
		for i := range tr.Requests {
			if got.Requests[i] != tr.Requests[i] {
				t.Fatalf("requests=%d: request %d drifted: %+v vs %+v",
					n, i, got.Requests[i], tr.Requests[i])
			}
		}
	}
}

// TestGenerateStreamMatchesGenerate is the streaming generator's core
// contract: Collect(GenerateStream(cfg)) is bit-identical to
// Generate(cfg) across seeds, sizes, skews, and flavor biases — the
// per-function lazy emitters plus merge reproduce the materialize-and-
// sort path exactly.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cases := []GeneratorConfig{
		{}, // zero config: both paths must yield an empty trace
		func() GeneratorConfig {
			c := DefaultGeneratorConfig()
			c.Requests = 5000
			return c
		}(),
		{Requests: 2000, Functions: 50, Seed: 1},
		{Requests: 100, Functions: 400, Seed: 2}, // more functions than requests
		{Requests: 3000, Functions: 30, Seed: 3, ZipfExponent: 1.8, FlavorBias: 1},
		{Requests: 3000, Functions: 30, Seed: 4, ZipfExponent: 0.4, FlavorBias: -2},
		{Requests: 1000, Functions: 1, Seed: 5},
		{Requests: 2500, Functions: 80, Seed: 6, ColdStartRate: 0.3, MeanDurationMs: 500},
	}
	for _, cfg := range cases {
		want := Generate(cfg)
		got := Collect(GenerateStream(cfg))
		if got.Len() != want.Len() {
			t.Fatalf("cfg %+v: stream emitted %d requests, Generate %d", cfg, got.Len(), want.Len())
		}
		for i := range want.Requests {
			if got.Requests[i] != want.Requests[i] {
				t.Fatalf("cfg %+v: request %d differs:\nstream:   %+v\ngenerate: %+v",
					cfg, i, got.Requests[i], want.Requests[i])
			}
		}
	}
}

// TestGenerateStreamOrdered pins the Stream contract itself: arrivals
// never move backwards.
func TestGenerateStreamOrdered(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Requests = 8000
	s := GenerateStream(cfg)
	prev, ok := s.Next()
	if !ok {
		t.Fatal("empty stream")
	}
	n := 1
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.Start < prev.Start {
			t.Fatalf("request %d at %v after %v", n, r.Start, prev.Start)
		}
		prev = r
		n++
	}
	if n != cfg.Requests {
		t.Fatalf("stream yielded %d requests, want %d", n, cfg.Requests)
	}
}

// TestGenerateByFunctionPartition checks that the per-function streams
// partition the generated trace: each stream carries exactly its
// function's requests, in order, with the advertised count, and the
// reported pod total matches the trace's.
func TestGenerateByFunctionPartition(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Requests = 4000
	fns, pods := GenerateByFunction(cfg)
	tr := Generate(cfg)

	byFn := make(map[int][]Request)
	maxPod := 0
	for _, r := range tr.Requests {
		byFn[r.FnID] = append(byFn[r.FnID], r)
		if r.PodID > maxPod {
			maxPod = r.PodID
		}
	}
	if pods != maxPod {
		t.Fatalf("pod total %d, trace max pod %d", pods, maxPod)
	}
	if len(fns) != cfg.Functions {
		t.Fatalf("got %d function streams, want %d", len(fns), cfg.Functions)
	}
	for _, f := range fns {
		want := byFn[f.FnID()]
		if f.Len() != len(want) {
			t.Fatalf("fn %d: Len %d, trace has %d", f.FnID(), f.Len(), len(want))
		}
		got := Collect(f)
		if !reflect.DeepEqual(got.Requests, want) && !(len(want) == 0 && got.Len() == 0) {
			t.Fatalf("fn %d: stream requests differ from trace subset", f.FnID())
		}
	}
}

// TestTimingCursorMatchesFunctionStream pins the timing walk to full
// emission: every function's cursor yields exactly its stream's
// requests' pod, arrival, rescaled duration, and cold-start fields,
// and its flavor and length.
func TestTimingCursorMatchesFunctionStream(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Requests = 6000
	c := Calibrate(cfg)
	for fn, f := range c.Streams() {
		tc := c.TimingCursor(fn)
		if tc.Len() != f.Len() {
			t.Fatalf("fn %d: cursor Len %d, stream Len %d", fn, tc.Len(), f.Len())
		}
		var tm Timing
		var r Request
		for i := 0; ; i++ {
			more, ok := tc.Next(&tm), f.NextInto(&r)
			if more != ok {
				t.Fatalf("fn %d: cursor and stream end at different requests (%d)", fn, i)
			}
			if !ok {
				break
			}
			want := Timing{PodID: r.PodID, Start: r.Start, Duration: r.Duration,
				ColdStart: r.ColdStart, InitDuration: r.InitDuration}
			if tm != want {
				t.Fatalf("fn %d request %d: cursor %+v, stream %+v", fn, i, tm, want)
			}
			if fl := tc.Flavor(); fl.VCPU != r.AllocCPU || fl.MemMB != r.AllocMemMB {
				t.Fatalf("fn %d: cursor flavor %+v, request %gx%gMB", fn, fl, r.AllocCPU, r.AllocMemMB)
			}
		}
	}
}

// TestMergeTieBreak pins Merge's determinism rule: simultaneous
// arrivals come out in source order.
func TestMergeTieBreak(t *testing.T) {
	a := &Trace{Requests: []Request{{FnID: 0, Start: 10}, {FnID: 0, Start: 30}}}
	b := &Trace{Requests: []Request{{FnID: 1, Start: 10}, {FnID: 1, Start: 20}}}
	got := Collect(Merge(FromTrace(a), FromTrace(b)))
	wantFns := []int{0, 1, 1, 0}
	for i, r := range got.Requests {
		if r.FnID != wantFns[i] {
			t.Fatalf("position %d: fn %d, want %d (order %+v)", i, r.FnID, wantFns[i], got.Requests)
		}
	}
}
