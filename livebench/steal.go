package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// Host steal. The benchmark runs on shared virtual machines, where the
// hypervisor can withhold its vCPUs from the guest while the guest has
// work to run ("steal"). On the 2-vCPU host the reference figures come
// from, steal ranged from 0 to 39% of CPU time from one run to the
// next. The loaded phase and set-up are CPU-bound, so stolen time
// stretches them without any change in the program; throughput_pps
// and setup_s are therefore taken over unstolen time: elapsed time
// scaled by the share of CPU time the kernel did not account as stolen
// in /proc/stat. Where /proc/stat is unreadable the share reads 0 and
// the figures are plain wall-clock.

// cpuTicks holds the kernel's aggregate CPU time counters: user, nice,
// system, idle, iowait, irq, softirq and steal.
type cpuTicks [8]uint64

func readTicks() cpuTicks {
	var t cpuTicks
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < len(t)+1 || f[0] != "cpu" {
		return t
	}
	for i := range t {
		t[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return t
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b cpuTicks) float64 {
	var total uint64
	d := func(i int) uint64 {
		if b[i] < a[i] {
			return 0
		}
		return b[i] - a[i]
	}
	for i := range a {
		total += d(i)
	}
	if total == 0 {
		return 0
	}
	return float64(d(7)) / float64(total)
}

// unstolen scales an elapsed time by the share of it not stolen.
func unstolen(elapsed time.Duration, a, b cpuTicks) time.Duration {
	return time.Duration(float64(elapsed) * (1 - stealShare(a, b)))
}
