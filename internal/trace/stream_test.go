package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// requestsDigest is the SHA-256 of a request sequence, one %+v line per
// request: every field, floats in their shortest exact form.
func requestsDigest(reqs []Request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateStreamMatchesGenerate pins the generator's output across
// seeds, sizes, skews, and flavor biases to SHA-256 digests. The
// digests were captured when Generate was still a separate emit-then-
// sort implementation that matched the stream request for request, so
// folding Generate into a collect of GenerateStream moved no byte; any
// later drift in the emitters, the calibration, or the merge fails
// here. Generate is checked too: its pre-sized collect must not change
// what the stream yields.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cases := []struct {
		cfg    GeneratorConfig
		digest string
	}{
		{GeneratorConfig{}, emptyDigest}, // zero config: an empty trace
		{func() GeneratorConfig {
			c := DefaultGeneratorConfig()
			c.Requests = 5000
			return c
		}(), "b829c3ceddfb5a511753db40f6d490ee88b7305fee5812b8998efbc9e84abdab"},
		{GeneratorConfig{Requests: 2000, Functions: 50, Seed: 1}, "f54177d0eacee963a7f15e957d5f1803ddc306706633deb61db445103907769e"},
		{GeneratorConfig{Requests: 100, Functions: 400, Seed: 2}, "aeb48008511dad48ffb2d6cc04481c44d422a564dc540fbc7303b36c95898925"}, // more functions than requests
		{GeneratorConfig{Requests: 3000, Functions: 30, Seed: 3, ZipfExponent: 1.8, FlavorBias: 1}, "adf5e7d0de53bf9259c93acdc38ed78687be39e36a989b775be9a3972f0035c5"},
		{GeneratorConfig{Requests: 3000, Functions: 30, Seed: 4, ZipfExponent: 0.4, FlavorBias: -2}, "4c85bc4e8f8bac32c14cd8e4bd3cce4ebe6cc08f225813ed74be631ea964492a"},
		{GeneratorConfig{Requests: 1000, Functions: 1, Seed: 5}, "dfd16017c6d3cd3fbd2bbfb72a3498252b6541e7d614d0bc16120831aea28a97"},
		{GeneratorConfig{Requests: 2500, Functions: 80, Seed: 6, ColdStartRate: 0.3, MeanDurationMs: 500}, "2e8ad90365f9c95b44cef89bf855bb2f81eb105969d59f2048ea25f47889287f"},
	}
	for _, c := range cases {
		streamed := Collect(GenerateStream(c.cfg))
		if got := requestsDigest(streamed.Requests); got != c.digest {
			t.Errorf("cfg %+v: stream digest %s, want %s", c.cfg, got, c.digest)
		}
		gen := Generate(c.cfg)
		if got := requestsDigest(gen.Requests); got != c.digest {
			t.Errorf("cfg %+v: Generate digest %s, want %s", c.cfg, got, c.digest)
		}
		if n := max(c.cfg.Requests, 0); gen.Len() != n {
			t.Errorf("cfg %+v: Generate yielded %d requests, want %d", c.cfg, gen.Len(), n)
		}
	}
}

// emptyDigest is the SHA-256 of no input.
const emptyDigest = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

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
