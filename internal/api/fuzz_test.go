package api

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeJobSpec throws arbitrary bytes at the spec decoder — the
// daemon's first contact with untrusted input — and checks its
// invariants: no panic, and anything accepted is well-formed (shaped
// method name, explicit seed) and survives a marshal/decode round
// trip with the same method and seed. Appending a closing bracket to
// an accepted spec must make it rejected.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Add([]byte(`{"method":"fleet.simulate","seed":7}`))
	f.Add([]byte(`{"method":"opt.sweep","seed":0,"params":{"requests":1000,"scenarios":["steady"]}}`))
	f.Add([]byte(`{"method":"scenario.verify","seed":18446744073709551615,"params":{"tolerance":1e-6}}`))
	f.Add([]byte(`{"method":"fleet.simulate"}`))
	f.Add([]byte(`{"method":"","seed":1}`))
	f.Add([]byte(`{"method":"a.b","seed":1,"params":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"method":"fleet.simulate","seed":7}{"method":"fleet.simulate","seed":8}`))
	f.Add([]byte(`{"method":"fleet.simulate","seed":1}]]]garbage`))
	f.Add([]byte(`{"method":"fleet.simulate","seed":1}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(data)
		if err != nil {
			return
		}
		for _, tail := range []string{"}", "]"} {
			if _, err := DecodeJobSpec(append(append([]byte{}, data...), tail...)); err == nil {
				t.Fatalf("accepted %q followed by %q", data, tail)
			}
		}
		if !methodNameRE.MatchString(spec.Method) {
			t.Fatalf("accepted malformed method %q", spec.Method)
		}
		if spec.Seed == nil {
			t.Fatal("accepted spec without a seed")
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-marshal: %v", err)
		}
		again, err := DecodeJobSpec(b)
		if err != nil {
			t.Fatalf("re-marshaled spec %s no longer decodes: %v", b, err)
		}
		if again.Method != spec.Method || *again.Seed != *spec.Seed {
			t.Fatalf("round trip changed the spec: %+v vs %+v", spec, again)
		}
	})
}
