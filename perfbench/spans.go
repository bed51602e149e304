package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"slscost/internal/trace"
)

// span is one timed call from the benchmark into a layer. Name is
// "layer.Call". Run ties the spans of one operation (one replay, sweep
// or job) together. A span with Calls > 1 is an aggregate of sampled
// calls: Est is the estimated total time of all Calls, and it has no
// interval of its own.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Calls  int           `json:"calls"`
	Est    time.Duration `json:"est_ns,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// busy is the time the span accounts for: its interval, or the estimate
// of an aggregate.
func (s span) busy() time.Duration {
	if s.Calls > 1 {
		return s.Est
	}
	return s.End - s.Start
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced path: every method is a no-op returning span ID 0.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add appends a span, assigning its ID (IDs start at 1; 0 means none).
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Run: run, Name: name, Start: time.Since(t.origin), Calls: 1})
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// interval records a span timed elsewhere, such as a job's queue wait
// read from the daemon's own timestamps.
func (t *tracer) interval(name string, parent, run int, from, to time.Time) {
	if t == nil {
		return
	}
	base := t.origin.Round(0) // wall clock, comparable with decoded timestamps
	t.add(span{Parent: parent, Run: run, Name: name, Start: from.Sub(base), End: to.Sub(base), Calls: 1})
}

// sampled records an aggregate child of parent: calls calls whose
// estimated total time is est.
func (t *tracer) sampled(name string, parent, run, calls int, est time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.add(span{Parent: parent, Run: run, Name: name, Calls: calls, Est: est})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time by ID: its duration minus the
// union of its children's intervals (overlapping children count once)
// minus the estimates of its aggregate children, floored at zero.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.Calls > 1 {
			self[s.ID] = s.Est
			continue
		}
		var ivs [][2]time.Duration
		var est time.Duration
		for _, k := range kids[s.ID] {
			if k.Calls > 1 {
				est += k.Est
				continue
			}
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		self[s.ID] = max(0, s.End-s.Start-unionLen(ivs)-est)
	}
	return self
}

// unionLen is the total length covered by the intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i][0], ivs[i][1]
		for i++; i < len(ivs) && ivs[i][0] <= hi; i++ {
			hi = max(hi, ivs[i][1])
		}
		total += hi - lo
	}
	return total
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer string
	Calls int
	Busy  time.Duration
	Self  time.Duration
	Share float64 // busy time over the workload's wall time
}

// layerTable folds spans into one row per layer, busiest first. wall is
// the wall time of the traced operations the shares are taken of.
func layerTable(spans []span, wall time.Duration) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.layer()]
		if r == nil {
			r = &layerRow{Layer: s.layer()}
			rows[s.layer()] = r
		}
		r.Calls += s.Calls
		r.Busy += s.busy()
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if wall > 0 {
			r.Share = float64(r.Busy) / float64(wall)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Busy != out[j].Busy {
			return out[i].Busy > out[j].Busy
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

func writeLayerTable(w io.Writer, title string, rows []layerRow) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-10s %10s %12s %12s %8s\n", "layer", "calls", "busy_ms", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %12.3f %12.3f %8.4f\n", r.Layer, r.Calls,
			float64(r.Busy)/1e6, float64(r.Self)/1e6, r.Share)
	}
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// pullEvery is the sampling interval of source pulls: timing every pull
// would cost more than many pulls themselves.
const pullEvery = 64

// pulls counts the requests a simulation pulls from its source and
// times one pull in pullEvery.
type pulls struct {
	n, timed int
	dur      time.Duration
}

// estimate is the estimated total time spent inside the source.
func (p *pulls) estimate() time.Duration {
	if p.timed == 0 {
		return 0
	}
	return time.Duration(float64(p.dur) * float64(p.n) / float64(p.timed))
}

// wrap returns src with every opened stream counted. A stream that can
// enumerate its pods up front keeps that ability, so the simulator's
// placement pass does the same work it does unwrapped.
func (p *pulls) wrap(src trace.Source) trace.Source {
	return func() (trace.Stream, error) {
		s, err := src()
		if err != nil {
			return nil, err
		}
		c := &countedStream{next: trace.NextIntoFunc(s), p: p}
		if sc, ok := s.(trace.PodScanner); ok {
			return &countedScanStream{countedStream: c, scan: sc}, nil
		}
		return c, nil
	}
}

type countedStream struct {
	next func(*trace.Request) bool
	p    *pulls
}

func (s *countedStream) NextInto(r *trace.Request) bool {
	s.p.n++
	if s.p.n%pullEvery != 0 {
		return s.next(r)
	}
	t0 := time.Now()
	ok := s.next(r)
	s.p.dur += time.Since(t0)
	s.p.timed++
	return ok
}

func (s *countedStream) Next() (trace.Request, bool) {
	var r trace.Request
	ok := s.NextInto(&r)
	return r, ok
}

type countedScanStream struct {
	*countedStream
	scan trace.PodScanner
}

func (s *countedScanStream) PodScan() []trace.PodMeta { return s.scan.PodScan() }
