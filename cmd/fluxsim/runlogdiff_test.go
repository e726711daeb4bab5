package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The two committed mini-logs are the first six records of a
// scenarios/straggler-drop.json run log; runlog_b changes round 1's score,
// one participant's fine-tuning seconds (in the last digit) and phase set,
// and marks another dropped.
const (
	miniA = "testdata/runlog_a.jsonl"
	miniB = "testdata/runlog_b.jsonl"
)

func TestRunlogDiffIdentical(t *testing.T) {
	var out strings.Builder
	same, err := runlogDiff(&out, miniA, miniA)
	if err != nil || !same {
		t.Fatalf("a vs a: same=%v err=%v", same, err)
	}
	if want := miniA + " and " + miniA + " are identical (6 records)\n"; out.String() != want {
		t.Fatalf("a vs a printed %q, want %q", out.String(), want)
	}
}

func TestRunlogDiffFirstDivergence(t *testing.T) {
	var out strings.Builder
	same, err := runlogDiff(&out, miniA, miniB)
	if err != nil || same {
		t.Fatalf("a vs b: same=%v err=%v", same, err)
	}
	want := miniA + " and " + miniB + " differ; first at line 3: round record, round 1\n" +
		"  score: 0.234375 -> 0.25\n" +
		"3 of 6 records differ (6 in " + miniA + ", 6 in " + miniB + "); fields that differ:\n" +
		"  dropped in 1 records\n" +
		"  phases.fine-tuning in 1 records\n" +
		"  phases.profiling in 1 records\n" +
		"  score in 1 records\n"
	if out.String() != want {
		t.Fatalf("a vs b printed\n%s\nwant\n%s", out.String(), want)
	}

	// From the other side, and starting at the participant records: the
	// first divergence names round and participant and lists every field.
	dir := t.TempDir()
	tail := func(path string) string {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(blob), "\n")
		p := filepath.Join(dir, filepath.Base(path))
		if err := os.WriteFile(p, []byte(strings.Join(lines[3:], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := tail(miniA), tail(miniB)
	out.Reset()
	if same, err := runlogDiff(&out, b, a); err != nil || same {
		t.Fatalf("b vs a tails: same=%v err=%v", same, err)
	}
	first := strings.Join(strings.Split(out.String(), "\n")[:4], "\n")
	wantFirst := b + " and " + a + " differ; first at line 2: participant record, round 1, participant 1\n" +
		"  phases.fine-tuning: 2795.9040000000005 -> 2795.904\n" +
		"  phases.profiling: 12.5 -> (absent)\n" +
		"2 of 3 records differ"
	if !strings.HasPrefix(first, wantFirst) {
		t.Fatalf("b vs a tails printed\n%s\nwant prefix\n%s", out.String(), wantFirst)
	}
}

func TestRunlogDiffLengthAndErrors(t *testing.T) {
	dir := t.TempDir()
	blob, err := os.ReadFile(miniA)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.jsonl")
	lines := strings.SplitAfter(string(blob), "\n")
	if err := os.WriteFile(short, []byte(strings.Join(lines[:5], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	same, err := runlogDiff(&out, miniA, short)
	if err != nil || same {
		t.Fatalf("a vs its first five records: same=%v err=%v", same, err)
	}
	if !strings.Contains(out.String(), "first at line 6: participant record, round 1, participant 2\n  device: \"consumer-high\" -> (no record)\n") ||
		!strings.Contains(out.String(), "1 of 6 records differ (6 in "+miniA+", 5 in "+short+")") {
		t.Fatalf("length mismatch printed\n%s", out.String())
	}

	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(lines[0]+"{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runlogDiff(&out, miniA, bad); err == nil || !strings.Contains(err.Error(), "bad.jsonl:2") {
		t.Fatalf("malformed line: err = %v, want one naming bad.jsonl:2", err)
	}
	if _, err := runlogDiff(&out, miniA, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing file: no error")
	}
}
