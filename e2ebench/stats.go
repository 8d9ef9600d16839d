package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package
// does not name: the calling thread's CPU time only.
const rusageThread = 1

func cpuOf(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for these arguments on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the CPU time of the calling OS thread. Callers lock
// their goroutine to its thread first, so the difference of two reads
// is that goroutine's CPU in between.
func threadCPU() time.Duration { return cpuOf(rusageThread) }

// processCPU is the CPU time of every thread of the process.
func processCPU() time.Duration { return cpuOf(syscall.RUSAGE_SELF) }

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
