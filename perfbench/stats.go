package main

import (
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic of xs that has at least 10
// samples beyond it, and how many samples lie beyond it. With 10 or fewer
// samples no such statistic exists and tail returns the maximum, with 0
// beyond.
func tail(xs []float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) <= 10 {
		return s[len(s)-1], 0
	}
	return s[len(s)-11], 10
}

// now is the benchmark's only wall-clock read.
func now() time.Time {
	//lint:ignore determinism the benchmark exists to measure wall time
	return time.Now()
}

func since(t time.Time) time.Duration { return now().Sub(t) }

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}
