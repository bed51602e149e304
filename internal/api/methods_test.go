package api

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"slscost/internal/jobs"
	"slscost/internal/trace"
)

// nextOnly yields n zero requests through Next alone.
type nextOnly struct{ n int }

func (s *nextOnly) Next() (trace.Request, bool) {
	if s.n == 0 {
		return trace.Request{}, false
	}
	s.n--
	return trace.Request{}, true
}

type intoOnly struct{ nextOnly }

func (s *intoOnly) NextInto(r *trace.Request) bool {
	rr, ok := s.Next()
	*r = rr
	return ok
}

type scanOnly struct{ nextOnly }

func (s *scanOnly) PodScan() []trace.PodMeta { return []trace.PodMeta{{ID: 1}} }

type intoScan struct{ intoOnly }

func (s *intoScan) PodScan() []trace.PodMeta { return []trace.PodMeta{{ID: 1}} }

// TestCountingStreamForwardsFastPaths pins the progress wrapper's
// transparency: it exposes IntoStream and PodScanner exactly when the
// inner stream does, forwards the pod walk, and still emits one
// heartbeat every progressEvery pulls whichever pull method is used.
func TestCountingStreamForwardsFastPaths(t *testing.T) {
	const pulls = 2*progressEvery + 1
	for _, inner := range []trace.Stream{
		&nextOnly{pulls},
		&intoOnly{nextOnly{pulls}},
		&scanOnly{nextOnly{pulls}},
		&intoScan{intoOnly{nextOnly{pulls}}},
	} {
		t.Run(fmt.Sprintf("%T", inner), func(t *testing.T) {
			_, innerInto := inner.(trace.IntoStream)
			innerScan, innerCanScan := inner.(trace.PodScanner)

			q := jobs.New(jobs.Config{Workers: 1})
			defer q.Close(context.Background())
			j, err := q.Submit("test.count", 1, func(_ context.Context, j *jobs.Job) error {
				s := (&Runtime{Job: j}).counting(inner, "replay")
				if _, ok := s.(trace.IntoStream); ok != innerInto {
					return fmt.Errorf("wrapper IntoStream = %v, inner %v", ok, innerInto)
				}
				sc, ok := s.(trace.PodScanner)
				if ok != innerCanScan {
					return fmt.Errorf("wrapper PodScanner = %v, inner %v", ok, innerCanScan)
				}
				if ok && len(sc.PodScan()) != len(innerScan.PodScan()) {
					return fmt.Errorf("wrapper PodScan does not forward the inner walk")
				}
				// Alternate pull methods so both count toward heartbeats.
				next := trace.NextIntoFunc(s)
				var r trace.Request
				n := 0
				for {
					ok := false
					if n%2 == 0 {
						ok = next(&r)
					} else {
						_, ok = s.Next()
					}
					if !ok {
						break
					}
					n++
				}
				if n != pulls {
					return fmt.Errorf("pulled %d requests, want %d", n, pulls)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var progress []int
			for i := 0; ; {
				lines, more, terminal := j.EventsSince(i)
				i += len(lines)
				for _, line := range lines {
					var ev Event
					if err := json.Unmarshal(line, &ev); err != nil {
						t.Fatal(err)
					}
					switch ev.Type {
					case EventProgress:
						if ev.Phase != "replay" {
							t.Errorf("heartbeat phase %q, want replay", ev.Phase)
						}
						progress = append(progress, ev.Requests)
					case EventDone:
						if ev.State != string(jobs.StateDone) {
							t.Fatalf("job %s: %s", ev.State, ev.Error)
						}
					}
				}
				if terminal && len(lines) == 0 {
					break
				}
				if !terminal {
					<-more
				}
			}
			if want := []int{progressEvery, 2 * progressEvery}; fmt.Sprint(progress) != fmt.Sprint(want) {
				t.Errorf("heartbeats at %v, want %v", progress, want)
			}
		})
	}
}
