package faults

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeFaultSpec throws arbitrary bytes at the fault-spec decoder
// — the job API's second untrusted input after the spec envelope — and
// checks its invariants: no panic, anything accepted re-validates
// (NaN/negative rates and overlapping drain windows can never slip
// through), and an accepted spec survives a marshal/decode round trip
// unchanged. Appending a closing bracket to an accepted spec must make
// it rejected: trailing data is an error however it starts.
func FuzzDecodeFaultSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"crash":{"rate":3,"restart":"2m"}}`))
	f.Add([]byte(`{"preempt":{"rate":2,"notice":"2m","restart":"1m"}}`))
	f.Add([]byte(`{"az_outage":{"zones":4,"zone":1,"at":0.45,"duration":"5m"}}`))
	f.Add([]byte(`{"drains":[{"from":0.2,"to":0.7,"grace":"1m","restart":"30s"}]}`))
	f.Add([]byte(`{"storm":{"at":0.5}}`))
	f.Add([]byte(`{"crash":{"rate":-1,"restart":"2m"}}`))
	f.Add([]byte(`{"crash":{"rate":1e308,"restart":"2m"}}`))
	f.Add([]byte(`{"drains":[{"from":0.1,"to":0.6},{"from":0.5,"to":0.9}]}`))
	f.Add([]byte(`{"drains":[{"from":0.1,"to":0.5},{"from":2.2,"to":2.4}]}`))
	f.Add([]byte(`{"az_outage":{"zones":0,"zone":0,"at":0,"duration":"0s"}}`))
	f.Add([]byte(`{"storm":{"at":0.5}}{"storm":{"at":0.6}}`))
	f.Add([]byte(`{"unknown_axis":true}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{}}`))
	f.Add([]byte(`{"storm":{"at":0.5}}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeFaultSpec(data)
		if err != nil {
			return
		}
		for _, tail := range []string{"}", "]"} {
			if _, err := DecodeFaultSpec(append(append([]byte{}, data...), tail...)); err == nil {
				t.Fatalf("accepted %q followed by %q", data, tail)
			}
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation: %v", err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-marshal: %v", err)
		}
		again, err := DecodeFaultSpec(b)
		if err != nil {
			t.Fatalf("re-marshaled spec %s no longer decodes: %v", b, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec: %+v vs %+v", spec, again)
		}
	})
}
