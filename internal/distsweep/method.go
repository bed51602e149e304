package distsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"slscost/internal/api"
	"slscost/internal/opt"
	"slscost/internal/strictjson"
)

// Params is the opt.distsweep job spec: every field opt.sweep
// accepts, plus the distribution controls.
type Params struct {
	api.SweepParams
	// Workers is how many in-process protocol workers the daemon
	// runs for the job; zero means 2.
	Workers int `json:"workers,omitempty"`
	// Shards overrides the shard count; zero derives it from the
	// grid.
	Shards int `json:"shards,omitempty"`
}

// Method returns the opt.distsweep namespace. It is not part of
// api.BuiltinRegistry — cmd/slscostd registers it explicitly — so the
// api package never imports distsweep.
func Method() api.Method {
	return api.Method{
		Name:        "opt.distsweep",
		Description: "run the opt.sweep grid through the distributed coordinator with in-process workers; the final sweep document is byte-identical to opt.sweep's",
		Run:         runJob,
	}
}

// runJob executes one opt.distsweep job. Rows arrive shard-by-shard
// rather than in global grid order, so unlike opt.sweep the stream
// carries shard-count progress events instead of per-row events; the
// terminal sweep document is byte-identical to opt.sweep's (that
// identity is exactly what the package tests gate on).
func runJob(ctx context.Context, rt *api.Runtime, params json.RawMessage) error {
	var p Params
	if err := decodeParams(params, &p); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "distsweep-job-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var mu sync.Mutex
	completed := 0
	sr, err := Local(ctx, LocalConfig{
		Spec:    Spec{Sweep: p.SweepParams, Seed: rt.Seed},
		Dir:     dir,
		Workers: p.Workers,
		Shards:  p.Shards,
		Trace: func(event string, shard, index int) {
			if event != "shard-done" {
				return
			}
			mu.Lock()
			completed++
			n := completed
			mu.Unlock()
			_ = rt.Emit(api.Event{Type: api.EventProgress, Phase: "shards", Requests: n})
		},
	})
	if err != nil {
		return err
	}
	pretty, err := sweepDocBytes(sr)
	if err != nil {
		return err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, pretty); err != nil {
		return err
	}
	return rt.Emit(api.Event{Type: api.EventSweep, Sweep: compact.Bytes()})
}

// decodeParams strictly parses a job spec's params, mirroring the
// api package's decoder: unknown fields and trailing data are
// errors.
func decodeParams(raw json.RawMessage, dst any) error {
	if len(raw) == 0 {
		raw = []byte("{}")
	}
	if err := strictjson.Decode(raw, dst); err != nil {
		return fmt.Errorf("distsweep: bad params: %w", err)
	}
	return nil
}

// sweepDocBytes renders the sweep as the indented JSON document
// fleetsim -sweep -format json writes — the byte-identity reference
// for verification.
func sweepDocBytes(sr *opt.SweepResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := sr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
