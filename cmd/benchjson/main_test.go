package main

import (
	"reflect"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Result
		ok   bool
	}{
		{
			name: "plain benchmark",
			line: "BenchmarkMoEForward-8  120  9876543 ns/op",
			want: Result{Name: "BenchmarkMoEForward", Iterations: 120, NsPerOp: 9876543, GOMAXPROCS: 8},
			ok:   true,
		},
		{
			name: "two key=value dimensions",
			line: "BenchmarkRound/method=flux/workers=8-8  3  345678 ns/op  120 B/op  7 allocs/op",
			want: Result{
				Name: "BenchmarkRound/method=flux/workers=8", Iterations: 3,
				NsPerOp: 345678, BytesPerOp: 120, AllocsPerOp: 7,
				Params:     map[string]string{"method": "flux", "workers": "8"},
				GOMAXPROCS: 8,
			},
			ok: true,
		},
		{
			name: "extra fleet dimension does not break parsing",
			line: "BenchmarkRound/method=flux/workers=8/fleet=longtail/deadline=8000-16  2  1234 ns/op",
			want: Result{
				Name: "BenchmarkRound/method=flux/workers=8/fleet=longtail/deadline=8000", Iterations: 2,
				NsPerOp:    1234,
				Params:     map[string]string{"method": "flux", "workers": "8", "fleet": "longtail", "deadline": "8000"},
				GOMAXPROCS: 16,
			},
			ok: true,
		},
		{
			name: "aggregation mode dimension passes through",
			line: "BenchmarkRound/method=fmd/workers=8/fleet=longtail/mode=async-8  4  5678 ns/op",
			want: Result{
				Name: "BenchmarkRound/method=fmd/workers=8/fleet=longtail/mode=async", Iterations: 4,
				NsPerOp:    5678,
				Params:     map[string]string{"method": "fmd", "workers": "8", "fleet": "longtail", "mode": "async"},
				GOMAXPROCS: 8,
			},
			ok: true,
		},
		{
			name: "non-pair segments are tolerated",
			line: "BenchmarkRound/quick/workers=2-4  5  99 ns/op",
			want: Result{
				Name: "BenchmarkRound/quick/workers=2", Iterations: 5, NsPerOp: 99,
				Params: map[string]string{"workers": "2"}, GOMAXPROCS: 4,
			},
			ok: true,
		},
		{
			name: "value containing a dash keeps its name",
			line: "BenchmarkRound/fleet=long-tail-8  5  99 ns/op",
			want: Result{
				Name: "BenchmarkRound/fleet=long-tail", Iterations: 5, NsPerOp: 99,
				Params: map[string]string{"fleet": "long-tail"}, GOMAXPROCS: 8,
			},
			ok: true,
		},
		{
			name: "no suffix means GOMAXPROCS=1",
			line: "BenchmarkRound/fleet=long-tail  5  99 ns/op",
			want: Result{
				Name: "BenchmarkRound/fleet=long-tail", Iterations: 5, NsPerOp: 99,
				Params: map[string]string{"fleet": "long-tail"}, GOMAXPROCS: 1,
			},
			ok: true,
		},
		{name: "header line", line: "goos: linux", ok: false},
		{name: "trailer line", line: "ok  \trepro\t5.1s", ok: false},
		{name: "missing ns/op", line: "BenchmarkRound/workers=1-8  3  120 B/op", ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseLine(tc.line)
			if ok != tc.ok {
				t.Fatalf("parseLine(%q) ok=%v, want %v", tc.line, ok, tc.ok)
			}
			if ok && !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseLine(%q)\n got %+v\nwant %+v", tc.line, got, tc.want)
			}
		})
	}
}

func TestParseParams(t *testing.T) {
	if p := parseParams("BenchmarkRound"); p != nil {
		t.Fatalf("no dimensions should yield nil params, got %v", p)
	}
	got := parseParams("BenchmarkRound/method=fmd/workers=1/fleet=longtail")
	want := map[string]string{"method": "fmd", "workers": "1", "fleet": "longtail"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("params %v, want %v", got, want)
	}
}
