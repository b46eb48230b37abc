package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeDelta is the Go runtime's own accounting over an interval.
type runtimeDelta struct {
	gcCPU      float64 // seconds, as the runtime estimates it
	allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeDelta{gcCPU: val(s[0].Value), allocBytes: val(s[1].Value)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCPU - b.gcCPU, a.allocBytes - b.allocBytes}
}
