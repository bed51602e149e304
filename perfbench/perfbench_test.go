package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"slscost/internal/fleet"
)

func TestPercentileNearestRankWithSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	p, err := percentile(xs, 90)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 90 || p.N != 100 || p.Beyond != 10 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90, n 100, 10 beyond", p)
	}
	if s := p.String(); !strings.Contains(s, "n=100") || !strings.Contains(s, "10 beyond") {
		t.Fatalf("printed percentile %q lacks its sample count", s)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if p, err := percentile(xs[:20], 50); err != nil || p.Beyond != 10 {
		t.Fatalf("p50 of 20 samples = %+v, %v; want 10 beyond", p, err)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "fleet.SimulateStream", Start: 0, End: 100 * ms, Calls: 1},
		{ID: 2, Parent: 1, Name: "a.x", Start: 10 * ms, End: 40 * ms, Calls: 1},
		{ID: 3, Parent: 1, Name: "a.y", Start: 30 * ms, End: 60 * ms, Calls: 1},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "a.z", Start: 35 * ms, End: 50 * ms, Calls: 1},  // inside both
		{ID: 5, Parent: 1, Name: "a.w", Start: 90 * ms, End: 120 * ms, Calls: 1}, // runs past the parent
		{ID: 6, Parent: 1, Name: "trace.NextInto", Calls: 640, Est: 5 * ms},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 ms; the sampled pulls
	// are estimated at 5 ms more.
	if got, want := self[1], 35*ms; got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
	if got, want := self[2], 30*ms; got != want {
		t.Fatalf("leaf self time %v, want its duration %v", got, want)
	}
	rows := layerTable(spans, 100*ms)
	for _, r := range rows {
		if r.Layer == "trace" && (r.Calls != 640 || r.Busy != 5*ms || r.Share != 0.05) {
			t.Fatalf("sampled layer row %+v, want 640 calls, 5ms busy, share 0.05", r)
		}
	}
}

func TestDigestIgnoresWorkers(t *testing.T) {
	a := fleet.Report{Platform: "aws-lambda", Hosts: 32, Workers: 1, Requests: 10, Served: 10, TotalCost: 1.5}
	b := a
	b.Workers = 8
	if digest(a) != digest(b) {
		t.Fatal("reports differing only in Workers have different digests")
	}
	if err := sameReport("w", a, b); err != nil {
		t.Fatal(err)
	}
	b.Served = 9
	if digest(a) == digest(b) {
		t.Fatal("reports differing in Served share a digest")
	}
	if err := sameReport("w", a, b); err == nil {
		t.Fatal("sameReport accepted different reports")
	}
}

func TestClosedLoopCountsRefusedAndFailedJobs(t *testing.T) {
	ctx := context.Background()
	d, err := startDaemon(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()

	// A job naming an unknown scenario is admitted or refused, and
	// never ends done: either way it is attempted and failed.
	d.keys, d.cdf = []jobKey{{"no-such-scenario", 1}}, zipfCDF(1)
	var failed tally
	res := d.loop(ctx, 0, 4, nil, &failed)
	if failed.attempted < 4 || failed.failed != failed.attempted || len(res.lat) != 0 {
		t.Fatalf("failing jobs: attempted %d, failed %d, %d latencies; want all attempted jobs failed",
			failed.attempted, failed.failed, len(res.lat))
	}

	// A draining server refuses every submit.
	if err := d.srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	d.jobs = nil
	var refused tally
	d.loop(ctx, 0, 4, nil, &refused)
	if refused.attempted < 4 || refused.failed != refused.attempted {
		t.Fatalf("refused jobs: attempted %d, failed %d; want every one failed", refused.attempted, refused.failed)
	}
	for _, rec := range d.jobs {
		if !rec.rejected {
			t.Fatalf("job %v was not marked refused: %v", rec.key, rec.err)
		}
	}
}
