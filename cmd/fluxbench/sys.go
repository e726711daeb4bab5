package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// machineContext is stamped on every output: a wall-clock number means
// nothing without the machine it was taken on.
type machineContext struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       string  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Budgets are the round budgets in force (workload → rounds).
	Budgets       map[string]int `json:"round_budgets"`
	PretrainSteps int            `json:"pretrain_steps"`
}

func newMachineContext(seed string, seconds float64, pretrain int) machineContext {
	return machineContext{
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        gitCommit(),
		Seed:          seed,
		Seconds:       seconds,
		Budgets:       make(map[string]int),
		PretrainSteps: pretrain,
	}
}

// gitCommit is the commit the binary was built from: the VCS stamp when the
// toolchain left one, else `git rev-parse`, else "unknown" (a checkout that
// is not a repository).
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if c := strings.TrimSpace(string(out)); c != "" {
			return c
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark in MB: VmHWM on
// Linux, the rusage maximum elsewhere.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the user+system CPU time the process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
