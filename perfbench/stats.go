package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(p*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tail is the highest of the 90th, 99th, 99.9th and 99.99th percentiles
// that has at least ten samples beyond it, with that percentile. With
// fewer than 100 samples it is the median.
func tail(xs []float64) (value, pct float64) {
	pct = 0.5
	for _, p := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(len(xs))*(1-p) >= 10 {
			pct = p
		}
	}
	return percentile(xs, pct), pct * 100
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method); it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// host identifies the machine a result was measured on; results from
// different hosts are not comparable.
type host struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GOGC       string `json:"gogc"`
	CPU        string `json:"cpu"`
}

func fingerprint() host {
	h := host{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GOGC:       os.Getenv("GOGC"),
		CPU:        "unknown",
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// cpuTime is the CPU time the process has used, in ns, over all threads.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set, so that peakRSSMB reads the peak since this call.
// Where the kernel refuses, peakRSSMB reads the peak since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM from
// /proc/self/status, else the maximum RSS getrusage reports.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
