package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"slscost/internal/fleet"
	"slscost/internal/trace"
)

// digest is the SHA-256 of the report's JSON form with Workers zeroed.
// The worker count is recorded in the report (and printed in its text
// header) but changes nothing else, so two runs that must agree are
// compared without it.
func digest(rep fleet.Report) string {
	rep.Workers = 0
	b, err := json.Marshal(rep)
	if err != nil {
		return "unencodable report: " + err.Error()
	}
	return hashBytes(b)
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sameReport returns an error naming what was compared when the two
// reports differ in anything but Workers.
func sameReport(what string, a, b fleet.Report) error {
	if da, db := digest(a), digest(b); da != db {
		return fmt.Errorf("%s: report %.12s != %.12s", what, da, db)
	}
	return nil
}

// simOutputs are the model's own results for a workload. They are
// deterministic per seed and not gated: they show that a change meant
// only to be faster left the simulated outcome as it was.
type simOutputs struct {
	Digest         string
	CostPerMillion float64
	// CPUInflation is billed vCPU-seconds over the vCPU-seconds the
	// requests consumed: the paper's billed-over-used headline ratio.
	CPUInflation  float64
	ColdStartRate float64
}

func reportOutputs(rep fleet.Report, usedCPU float64) simOutputs {
	return simOutputs{
		Digest:         digest(rep),
		CostPerMillion: rep.CostPerMillion(),
		CPUInflation:   rep.BilledCPUSeconds / usedCPU,
		ColdStartRate:  rep.ColdStartRate(),
	}
}

func (o simOutputs) write(w io.Writer) {
	fmt.Fprintf(w, "output digest=%.16s cost_per_million=%.6f cpu_inflation=%.6f cold_start_rate=%.6f\n",
		o.Digest, o.CostPerMillion, o.CPUInflation, o.ColdStartRate)
}

// usedCPU drains one opening of src and sums the vCPU-seconds its
// requests consumed.
func usedCPU(src trace.Source) (float64, error) {
	s, err := src()
	if err != nil {
		return 0, err
	}
	next := trace.NextIntoFunc(s)
	var r trace.Request
	var sum float64
	for next(&r) {
		sum += r.ActualCPUSeconds()
	}
	return sum, nil
}
