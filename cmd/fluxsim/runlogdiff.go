package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// runlogDiff compares two JSONL run logs (written by -runlog) record by
// record. Identical logs get one line saying so. Otherwise it prints the
// first record where they diverge — its line, type, round and participant —
// with every field whose value differs, then how many records differ and
// which fields differ anywhere, with the number of records each. It reports
// whether the logs are identical.
func runlogDiff(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRunlog(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunlog(pathB)
	if err != nil {
		return false, err
	}
	n := max(len(a), len(b))
	differing := 0
	fieldCount := map[string]int{}
	for i := 0; i < n; i++ {
		var ra, rb map[string]string
		if i < len(a) {
			ra = a[i]
		}
		if i < len(b) {
			rb = b[i]
		}
		fields := diffFields(ra, rb)
		if len(fields) == 0 {
			continue
		}
		if differing == 0 {
			fmt.Fprintf(w, "%s and %s differ; first at line %d: %s\n", pathA, pathB, i+1, describeRecord(ra, rb))
			for _, f := range fields {
				fmt.Fprintf(w, "  %s: %s -> %s\n", f, valueOr(ra, f), valueOr(rb, f))
			}
		}
		differing++
		for _, f := range fields {
			fieldCount[f]++
		}
	}
	if differing == 0 {
		fmt.Fprintf(w, "%s and %s are identical (%d records)\n", pathA, pathB, n)
		return true, nil
	}
	names := make([]string, 0, len(fieldCount))
	for f := range fieldCount {
		names = append(names, f)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d of %d records differ (%d in %s, %d in %s); fields that differ:\n", differing, n, len(a), pathA, len(b), pathB)
	for _, f := range names {
		fmt.Fprintf(w, "  %s in %d records\n", f, fieldCount[f])
	}
	return false, nil
}

// readRunlog reads one flattened record per non-empty line of a run log.
func readRunlog(path string) ([]map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []map[string]string
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		dec.UseNumber()
		var v map[string]any
		if err := dec.Decode(&v); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		rec := map[string]string{}
		flatten(rec, "", v)
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// flatten writes every leaf of v into rec under a dotted path (phases.fine-
// tuning, flushes[0].size), its value in JSON notation — numbers as
// written, so two values compare equal exactly when their bits do.
func flatten(rec map[string]string, path string, v any) {
	switch v := v.(type) {
	case map[string]any:
		//fluxvet:unordered each key writes its own entry of rec
		for k, x := range v {
			p := k
			if path != "" {
				p = path + "." + k
			}
			flatten(rec, p, x)
		}
	case []any:
		for i, x := range v {
			flatten(rec, fmt.Sprintf("%s[%d]", path, i), x)
		}
	case json.Number:
		rec[path] = v.String()
	case string:
		rec[path] = strconv.Quote(v)
	default: // bool or null
		rec[path] = fmt.Sprint(v)
	}
}

// diffFields returns the sorted paths whose values differ between two
// flattened records; a nil record (past the end of its log) differs in
// every field of the other.
func diffFields(a, b map[string]string) []string {
	var fields []string
	//fluxvet:unordered the result is sorted below
	for f, va := range a {
		if vb, ok := b[f]; !ok || va != vb {
			fields = append(fields, f)
		}
	}
	//fluxvet:unordered the result is sorted below
	for f := range b {
		if _, ok := a[f]; !ok {
			fields = append(fields, f)
		}
	}
	sort.Strings(fields)
	return fields
}

// describeRecord names a record by type, round and participant, from
// whichever side has it.
func describeRecord(a, b map[string]string) string {
	r := a
	if r == nil {
		r = b
	}
	s := "record"
	if t, ok := r["type"]; ok {
		s, _ = strconv.Unquote(t)
		s += " record"
	}
	if v, ok := r["round"]; ok {
		s += ", round " + v
	}
	if v, ok := r["participant"]; ok {
		s += ", participant " + v
	}
	return s
}

// valueOr returns a field's value for printing, or why there is none.
func valueOr(rec map[string]string, field string) string {
	if rec == nil {
		return "(no record)"
	}
	if v, ok := rec[field]; ok {
		return v
	}
	return "(absent)"
}
