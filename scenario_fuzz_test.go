package flux_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	flux "repro"
)

// FuzzLoadScenario drives ParseScenario — the strict-decoding surface behind
// LoadScenario — with arbitrary bytes. The corpus is seeded with every
// scenario file the repo ships plus the documented rejection cases, so the
// fuzzer starts from real accepted and real refused inputs.
//
// Invariants: the parser never panics; any accepted scenario has a name,
// resolves to a valid Config, and survives an encode/decode round trip
// unchanged (strict decoding must accept everything the encoder emits).
func FuzzLoadScenario(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no scenario seed files found")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","bogus_field":1}`)) // unknown field → reject
	f.Add([]byte(`{"description":"anonymous"}`))  // missing name → reject
	f.Add([]byte(`{"name":"bad","rounds":-3}`))   // negative → reject
	f.Add([]byte(`{"name":"min"}`))               // minimal accept
	f.Add([]byte(`{"name":"a"} {"name":"b"} x`))  // data after the value → reject
	f.Add([]byte(`{`))                            // truncated JSON
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := flux.ParseScenario(data)
		if err != nil {
			return
		}
		if s.Name == "" {
			t.Fatalf("accepted scenario with empty name: %q", data)
		}
		if verr := s.Config().Validate(); verr != nil {
			t.Fatalf("accepted scenario resolves to invalid config: %v (input %q)", verr, data)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not re-encode: %v", err)
		}
		s2, err := flux.ParseScenario(enc)
		if err != nil {
			t.Fatalf("round trip rejected: %v (encoded %q)", err, enc)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed scenario:\n first %+v\nsecond %+v", s, s2)
		}
	})
}
