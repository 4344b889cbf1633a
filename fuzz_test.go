package netcache

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCanonicalKey fuzzes the service's input boundary: any bytes that
// decode as a RunSpec the way POST /v1/run decodes them must canonicalise
// to a fixed point. Decoding the spec's CanonicalJSON and canonicalising
// again must give the same bytes and the same store Key, so a spec and
// its canonical form can never address different results.
func FuzzCanonicalKey(f *testing.F) {
	seeds := []RunSpec{{
		App: "gauss", System: SystemNetCache, Scale: 0.5,
		Sampling: &Sampling{Mode: "stratified", Seed: 3},
	}}
	for _, app := range Apps() {
		for _, sys := range Systems {
			seeds = append(seeds, RunSpec{App: app, System: sys})
		}
	}
	for _, spec := range seeds {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Legacy numeric values outside the known systems and policies once
	// canonicalised to names that do not decode.
	f.Add([]byte(`{"App":"sor","System":7}`))
	f.Add([]byte(`{"App":"sor","Config":{"SharedPolicy":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec RunSpec
		if json.NewDecoder(bytes.NewReader(data)).Decode(&spec) != nil {
			return // rejected with 400, never keyed
		}
		canon, err := spec.CanonicalJSON()
		if err != nil {
			return // rejected when keyed, never stored
		}
		var again RunSpec
		if err := json.Unmarshal(canon, &again); err != nil {
			t.Fatalf("canonical JSON %s does not decode: %v", canon, err)
		}
		canon2, err := again.CanonicalJSON()
		if err != nil {
			t.Fatalf("re-canonicalising %s: %v", canon, err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical JSON is not a fixed point:\n%s\n%s", canon, canon2)
		}
		k1, err1 := spec.Key()
		k2, err2 := again.Key()
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("keys differ: %s (%v) vs %s (%v)", k1, err1, k2, err2)
		}
	})
}
