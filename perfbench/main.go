// Command perfbench is the repository benchmark. It runs one named
// workload against the public APIs of the simulator, the optimizer and
// the slscostd job service, checks that every output is correct, and
// prints its metrics with the last line of standard output holding one
// JSON object:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run traces alternate operations, measures every
// layer on its own, and prints the per-layer metrics; it also writes a
// per-layer table and the recorded spans under --out. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// Set-up runs at least setupReps times and for at least
	// setupTime; setup_s is the median.
	setupReps = 5
	setupTime = time.Second
	warmTime  = time.Second
	// minOps is the fewest untimed-phase operations a run completes,
	// so that the p90 latency has minBeyond samples above it.
	minOps = 100
	// maxStretch bounds how far past --seconds a slow machine may run
	// while reaching minOps.
	maxStretch = 4
)

// nproc sizes every pool: simulation workers, the optimizer's pool,
// the daemon's job workers and its clients.
var nproc = runtime.NumCPU()

// instance is one workload with its inputs built.
type instance interface {
	// warm runs untimed operations, for at least warmTime (daemon: a
	// fixed number of jobs), so caches fill and the runtime settles
	// before timing.
	warm(ctx context.Context) error
	// timed runs the workload for d (and until minOps operations
	// finished when untraced). With a tracer, every other operation is
	// traced and its latency kept apart.
	timed(ctx context.Context, d time.Duration, tr *tracer, t *tally) loopResult
	// check runs the untimed correctness checks, noting each on t.
	check(ctx context.Context, t *tally) simOutputs
	// probe names the inputs the per-layer probes run on.
	probe() probeInput
	close()
}

type workload struct {
	name, why string
	setup     func(ctx context.Context, seed uint64) (instance, error)
}

var workloads = []workload{
	{"steady", "raw calibrated generator streamed into 32 hosts: emission, merge and the host loop", newSteady},
	{"churn", "recorded flash-crowd trace with adaptive keep-alive and crashes: host loop, wheel, deciders, faults", newChurn},
	{"sweep", "24-candidate policy grid on two scenarios: many short simulations and the optimizer pool", newSweep},
	{"daemon", "closed-loop fleet.simulate jobs over loopback HTTP: API, job queue and plan cache", newDaemon},
}

// loopResult is what the timed phase measured.
type loopResult struct {
	wall      time.Duration
	lat       []float64 // per untraced operation, ms
	tracedLat []float64 // per traced operation, ms
	nsPerReq  []float64 // per untraced operation, or one figure for the phase
	requests  int       // simulated requests in completed operations
	evals     int       // simulations completed
	allocs    uint64    // heap bytes allocated over the phase
	peakHeap  uint64    // live-heap high-water mark above the baseline
	// heapUntil, when set, ends the window peakHeap is read over.
	heapUntil time.Time
}

type opFunc func(ctx context.Context, tr *tracer, run int) (requests, evals int, err error)

// runOps runs op back to back for d. Untraced, it also keeps going
// until minOps operations finished (for at most maxStretch×d).
func runOps(ctx context.Context, d time.Duration, tr *tracer, t *tally, op opFunc) loopResult {
	var res loopResult
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= maxStretch*d || el >= d && (tr != nil || len(res.lat) >= minOps) {
			break
		}
		var opTr *tracer
		if tr != nil && i%2 == 1 {
			opTr = tr
		}
		t0 := time.Now()
		reqs, evals, err := op(ctx, opTr, i+1)
		dt := time.Since(t0)
		if t.note("operation", err) != nil {
			continue
		}
		if opTr != nil {
			res.tracedLat = append(res.tracedLat, float64(dt)/1e6)
		} else {
			res.lat = append(res.lat, float64(dt)/1e6)
			res.nsPerReq = append(res.nsPerReq, float64(dt)/float64(reqs))
		}
		res.requests += reqs
		res.evals += evals
	}
	res.wall = time.Since(start)
	return res
}

// warmOps runs op untimed for warmTime (at least once).
func warmOps(ctx context.Context, op opFunc) error {
	for start := time.Now(); time.Since(start) < warmTime; {
		if _, _, err := op(ctx, nil, 0); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the timed phase and adds the heap figures.
func measure(ctx context.Context, in instance, d time.Duration, tr *tracer, t *tally) loopResult {
	base := baselineHeap()
	a0 := readMetric(allocsMetric)
	hs := startHeapSampler()
	res := in.timed(ctx, d, tr, t)
	peak := hs.finish(res.heapUntil)
	res.allocs = readMetric(allocsMetric) - a0
	if peak > base {
		res.peakHeap = peak - base
	}
	return res
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: steady, churn, sweep or daemon")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	out := flag.String("out", filepath.Join("perfbench", "results"), "directory for the per-layer table and spans")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, d time.Duration, traced bool, outDir string, w io.Writer) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if d <= 0 {
		return errors.New("--seconds must be positive")
	}
	ctx := context.Background()
	fmt.Fprintf(w, "workload %s seed %d: %s (%d CPUs)\n", wl.name, seed, wl.why, nproc)

	var in instance
	var setups []float64
	for start := time.Now(); len(setups) < setupReps || time.Since(start) < setupTime; {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = wl.setup(ctx, seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()
	if err := in.warm(ctx); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	t := &tally{}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := measure(ctx, in, d, tr, t)
	outputs := in.check(ctx, t)

	m := map[string]metric{}
	if traced {
		if err := layerMetrics(ctx, wl.name, seed, in, res, tr, t, outDir, m, w); err != nil {
			return err
		}
	} else {
		if err := endToEnd(w, setups, res, m); err != nil {
			return err
		}
	}
	outputs.write(w)
	fmt.Fprintf(w, "error_rate %.6f (%d of %d operations and checks failed)\n", t.errorRate(), t.failed, t.attempted)
	for _, e := range t.errs {
		fmt.Fprintln(w, "  failure:", e)
	}
	writeMetrics(w, m)
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// endToEnd fills the untraced metrics every workload reports.
func endToEnd(w io.Writer, setups []float64, res loopResult, m map[string]metric) error {
	if res.requests == 0 || len(res.lat) == 0 {
		return errors.New("no operation completed")
	}
	p50, err := percentile(res.lat, 50)
	if err != nil {
		return fmt.Errorf("job_p50_ms: %w", err)
	}
	// The p90 is printed, not gated: on a shared host it follows the
	// host's noise more than the program (see README.md).
	var p90 string
	if p, err := percentile(res.lat, 90); err != nil {
		p90 = err.Error()
	} else {
		p90 = p.String()
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["ns_per_request"] = metric{median(res.nsPerReq), "ns"}
	m["alloc_bytes_per_request"] = metric{float64(res.allocs) / float64(res.requests), "B"}
	m["peak_heap_mb"] = metric{float64(res.peakHeap) / (1 << 20), "MB"}
	m["job_p50_ms"] = metric{p50.Value, "ms"}
	fmt.Fprintf(w, "operations %d in %.2fs: latency ms %v, %s; %.4g simulations/s\n",
		len(res.lat), res.wall.Seconds(), p50, p90, float64(res.evals)/res.wall.Seconds())
	return nil
}

func writeMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
