package fleet

import "testing"

// FuzzParseAvailabilityTrace drives ParseTrace, the strict decoder behind
// LoadTrace and a scenario's fleet trace, with arbitrary bytes. The repo
// ships no trace file, so the corpus is the documented trace shape, the
// TestParseTrace cases (a second document after the first among them) and
// a few malformed documents.
//
// Invariants: the parser never panics; every trace it accepts passes
// Validate(0); and for every round r in [0, 2·len(Rounds)) — each round and
// its wrap-around — and every fleet size n in {1, max id + 1}, Available(r, n)
// is a strictly increasing (so sorted and duplicate-free) subset of [0, n).
func FuzzParseAvailabilityTrace(f *testing.F) {
	for _, seed := range []string{
		`{"rounds": [[0,1,2],[1],[2,0,2]]}`,
		`{"rounds": [[0,1],[2]]}`,
		`{"rounds": []}`,
		`{"rounds":[[0]]} {"rounds":[[-1]]}`,
		`{"rounds":[[0]]}` + "\n",
		`{"rounds":[[-1]]}`,
		`{"rounds":[[]]}`,
		`{"rounds":[[0]],"extra":1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(data)
		if err != nil {
			return
		}
		if err := tr.Validate(0); err != nil {
			t.Fatalf("accepted trace fails Validate(0): %v", err)
		}
		maxID := 0
		for _, ids := range tr.Rounds {
			for _, id := range ids {
				maxID = max(maxID, id)
			}
		}
		for _, n := range []int{1, maxID + 1} {
			for r := 0; r < 2*len(tr.Rounds); r++ {
				got := tr.Available(r, n)
				for i, id := range got {
					if id < 0 || id >= n || (i > 0 && got[i-1] >= id) {
						t.Fatalf("Available(%d, %d) = %v: not a sorted, duplicate-free subset of [0,%d)", r, n, got, n)
					}
				}
			}
		}
	})
}
