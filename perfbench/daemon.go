package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slscost/internal/api"
	"slscost/internal/fleet"
	"slscost/internal/jobs"
	"slscost/internal/stats"
)

// The job mix is an assumption: nothing in the repository records what
// traffic a daemon sees. Callers of fleetsim -remote send its fixed
// default seed unless they pass -seed, so a few keys recur often and
// the seeds users pick recur rarely. The clients therefore draw each
// job's key from a fixed universe of keys with Zipf (s = 1) popularity.
// The universe is twice the daemon's default plan-cache capacity (32),
// so the LRU evicts and its hit ratio depends on the cache.
const (
	// daemonRequests is the synthesized trace size of every job: the
	// size cmd/slscostd's tests submit, a quarter of fleetsim's default
	// 200,000, so a run holds enough jobs for its percentiles.
	daemonRequests = 50000
	// jobScenario is the scenario every job replays. One scenario keeps
	// the job-cost distribution unimodal, so its percentiles do not
	// jump between scenarios as the key universe changes with the seed.
	jobScenario = "diurnal"
	keyUniverse = 64
	// warmJobs is how many jobs the warm-up sends. A count, not a time:
	// the plan cache and the daemon's job table then hold the same
	// amount when timing starts, however fast the daemon is.
	warmJobs = keyUniverse
)

// jobKey is the workload-defining part of a job: the plan-cache key.
type jobKey struct {
	Scenario string
	Seed     uint64
}

func (k jobKey) spec() (api.JobSpec, error) {
	params, err := json.Marshal(k.params())
	seed := k.Seed
	return api.JobSpec{Method: "fleet.simulate", Seed: &seed, Params: params}, err
}

func (k jobKey) params() api.SimulateParams {
	return api.SimulateParams{Scenario: k.Scenario, Requests: daemonRequests}
}

// jobRecord is one job as its client saw it. It keeps only what the
// metrics need: the report is compared on receipt and not kept.
type jobRecord struct {
	key        jobKey
	lat        time.Duration // Submit call to receipt of done
	submit     time.Duration // Submit round trip
	doneAt     time.Time
	eventBytes int
	requests   int
	rejected   bool // refused at submit: FullError or HTTP error
	err        error
	// From the job's status, fetched after done.
	created, started, finished time.Time
	cache                      api.CacheStats
}

// daemonW serves api.NewServer on a loopback listener and drives it
// with api.Client from nproc closed-loop clients.
type daemonW struct {
	srv    *api.Server
	hs     *http.Server
	served chan error
	client *api.Client
	hc     *http.Client
	keys   []jobKey      // the key universe, most popular first
	cdf    []float64     // cumulative popularity of keys
	rngs   []*stats.Rand // one per client, kept across loops
	in     probeInput

	mu   sync.Mutex
	jobs []jobRecord
	// reports holds the first report of each key; every later job of
	// the key must return the same bytes.
	reports map[jobKey][]byte
}

// newDaemon starts a server and runs one job of the most popular key,
// so set-up covers start-up and proves the server answers.
func newDaemon(ctx context.Context, seed uint64) (instance, error) {
	d, err := startDaemon(ctx, seed)
	if err != nil {
		return nil, err
	}
	if rec := d.job(ctx, d.keys[0], nil, -1); rec.err != nil {
		d.close()
		return nil, fmt.Errorf("first job %v: %w", d.keys[0], rec.err)
	}
	return d, nil
}

// zipfCDF is the cumulative Zipf (s = 1) popularity of n ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	return cdf
}

// draw picks a key by popularity.
func (d *daemonW) draw(rng *stats.Rand) jobKey {
	u := rng.Float64() * d.cdf[len(d.cdf)-1]
	return d.keys[min(sort.SearchFloat64s(d.cdf, u), len(d.keys)-1)]
}

func startDaemon(ctx context.Context, seed uint64) (*daemonW, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemonW{
		srv:     api.NewServer(api.ServerConfig{Workers: nproc}),
		served:  make(chan error, 1),
		hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * nproc}},
		cdf:     zipfCDF(keyUniverse),
		reports: map[jobKey][]byte{},
	}
	d.hs = &http.Server{Handler: d.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = api.NewClient(ln.Addr().String())
	d.client.HTTPClient = d.hc
	rng := stats.NewRand(stats.MixSeed(seed, 0))
	for i := 0; i < keyUniverse; i++ {
		d.keys = append(d.keys, jobKey{jobScenario, rng.Uint64()})
	}
	for c := 0; c < nproc; c++ {
		d.rngs = append(d.rngs, stats.NewRand(stats.MixSeed(seed, uint64(c)+1)))
	}
	// The probes replay the most popular key in-process.
	k := d.keys[0]
	fc, _, scfg, err := api.SimulateConfigs(k.params(), k.Seed)
	if err != nil {
		d.close()
		return nil, err
	}
	fc.Workers = nproc
	d.in = probeInput{gen: scfg.Base, scenario: k.Scenario, scfg: scfg, cfg: fc, seed: k.Seed}
	if _, err := d.client.Health(ctx); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemonW) warm(ctx context.Context) error {
	var t tally
	d.loop(ctx, 0, warmJobs, nil, &t)
	d.jobs = nil
	if t.failed > 0 {
		return fmt.Errorf("%d of %d warm-up jobs failed: %v", t.failed, t.attempted, t.errs)
	}
	return nil
}

// close drains the job queue, stops the listener and waits for Serve to
// return. Every job has finished by then, so a failure here changes no
// measured figure; it is reported on standard error.
func (d *daemonW) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: draining the daemon:", err)
	}
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping the listener:", err)
	}
	<-d.served
	d.hc.CloseIdleConnections()
}

// job submits one job, streams it to done and fetches its status.
func (d *daemonW) job(ctx context.Context, k jobKey, tr *tracer, run int) jobRecord {
	rec := jobRecord{key: k}
	spec, err := k.spec()
	if err != nil {
		rec.err = fmt.Errorf("%v: %w", k, err)
		return rec
	}
	t0 := time.Now()
	root := tr.begin("bench.job", 0, run)
	sub := tr.begin("api.Submit", root, run)
	st, err := d.client.Submit(ctx, spec)
	tr.end(sub)
	rec.submit = time.Since(t0)
	if err != nil {
		tr.end(root)
		rec.rejected = true
		rec.err = fmt.Errorf("submit %v: %w", k, err)
		return rec
	}
	var state, failure string
	var report []byte
	// The job queues and runs while the stream waits, so its queue and
	// run intervals are the stream's children: the stream's self time
	// is what the HTTP layer adds.
	stream := tr.begin("api.Stream", root, run)
	err = d.client.Stream(ctx, st.ID, func(line []byte, ev api.Event) error {
		rec.eventBytes += len(line) + 1
		switch ev.Type {
		case api.EventReport:
			report = append([]byte(nil), ev.Report...)
		case api.EventDone:
			rec.doneAt = time.Now()
			state, failure = ev.State, ev.Error
		}
		return nil
	})
	tr.end(stream)
	tr.end(root)
	rec.lat = rec.doneAt.Sub(t0)
	switch {
	case err != nil:
		rec.err = fmt.Errorf("stream %s: %w", st.ID, err)
		return rec
	case state != string(jobs.StateDone):
		rec.err = fmt.Errorf("job %s %v ended %s: %s", st.ID, k, state, failure)
		return rec
	}
	s, err := d.client.Status(ctx, st.ID)
	if err != nil {
		rec.err = fmt.Errorf("status %s: %w", st.ID, err)
		return rec
	}
	if s.Started == nil || s.Finished == nil {
		rec.err = fmt.Errorf("job %s: done without start and finish times", st.ID)
		return rec
	}
	rec.created, rec.started, rec.finished, rec.cache = s.Created, *s.Started, *s.Finished, s.PlanCache
	tr.interval("jobs.queue", stream, run, rec.created, rec.started)
	tr.interval("jobs.run", stream, run, rec.started, rec.finished)
	var rep struct{ Requests int }
	if err := json.Unmarshal(report, &rep); err != nil || rep.Requests == 0 {
		rec.err = fmt.Errorf("job %s: no report (%v)", st.ID, err)
		return rec
	}
	rec.requests = rep.Requests
	d.mu.Lock()
	defer d.mu.Unlock()
	if first, ok := d.reports[k]; !ok {
		d.reports[k] = report
	} else if !bytes.Equal(report, first) {
		rec.err = fmt.Errorf("job %s: report differs from the first job of %v", st.ID, k)
	}
	return rec
}

func (d *daemonW) timed(ctx context.Context, dur time.Duration, tr *tracer, t *tally) loopResult {
	if tr != nil {
		return d.loop(ctx, dur, 0, tr, t)
	}
	return d.loop(ctx, dur, minOps, tr, t)
}

// loop runs nproc closed-loop clients, each sending its next job as
// soon as the previous one's done event arrives, until dur has passed
// and minJobs jobs were sent (for at most maxStretch×dur when dur is
// set). A refused or failed job counts as attempted and failed. The
// result's heapUntil is when the minJobs-th job ended, so the live
// heap is read over a fixed number of jobs: the daemon keeps every job
// it has run, and a faster daemon must not read as a bigger one.
func (d *daemonW) loop(ctx context.Context, dur time.Duration, minJobs int, tr *tracer, t *tally) loopResult {
	var (
		res   loopResult
		mu    sync.Mutex
		wg    sync.WaitGroup
		run   atomic.Int64
		ended int
	)
	start := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(rng *stats.Rand) {
			defer wg.Done()
			for i := 0; ; i++ {
				el := time.Since(start)
				if dur > 0 && el >= maxStretch*dur || el >= dur && int(run.Load()) >= minJobs {
					return
				}
				k := d.draw(rng)
				var jobTr *tracer
				if tr != nil && i%2 == 1 {
					jobTr = tr
				}
				rec := d.job(ctx, k, jobTr, int(run.Add(1)))
				t.note("job", rec.err)
				d.mu.Lock()
				d.jobs = append(d.jobs, rec)
				d.mu.Unlock()
				mu.Lock()
				if ended++; ended == minJobs {
					res.heapUntil = time.Now()
				}
				if rec.err != nil {
					mu.Unlock()
					continue
				}
				if jobTr != nil {
					res.tracedLat = append(res.tracedLat, float64(rec.lat)/1e6)
				} else {
					res.lat = append(res.lat, float64(rec.lat)/1e6)
				}
				res.requests += rec.requests
				res.evals++
				mu.Unlock()
			}
		}(d.rngs[c])
	}
	wg.Wait()
	res.wall = time.Since(start)
	if res.requests > 0 {
		res.nsPerReq = []float64{float64(res.wall) / float64(res.requests)}
	}
	return res
}

// check compares each key's report with the in-process simulation of
// the same params and seed. Every job's report already equals the
// first of its key: job compares them on receipt.
func (d *daemonW) check(ctx context.Context, t *tally) simOutputs {
	var first fleet.Report
	for k, raw := range d.reports {
		var got, want fleet.Report
		fc, sc, scfg, err := api.SimulateConfigs(k.params(), k.Seed)
		if err == nil {
			want, err = fleet.SimulateScenarioStream(ctx, fc, sc, scfg)
		}
		if err == nil {
			err = json.Unmarshal(raw, &got)
		}
		if err == nil {
			err = sameReport(fmt.Sprintf("daemon vs in-process %v", k), got, want)
		}
		t.note("check daemon == CLI", err)
		if k == d.keys[0] {
			first = want
		}
	}
	k := d.keys[0]
	_, sc, scfg, err := api.SimulateConfigs(k.params(), k.Seed)
	var used float64
	if err == nil {
		used, err = usedCPU(sc.Source(scfg))
	}
	t.note("check input drain", err)
	return reportOutputs(first, used)
}

func (d *daemonW) probe() probeInput { return d.in }
