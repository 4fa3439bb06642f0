package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The benchmark's host is a shared VM whose speed drifts over minutes:
// the same sweep round took 5 s and, minutes later, 10 s. Steal is only a
// small part of it and process CPU time grows with wall time, so the
// drift is contention, and CPU-time metrics would not remove it. So every
// run also times a reference kernel, fixed CPU work owned by the
// benchmark that no change to the program under test can speed up,
// right before and right after each measured window. The time metrics
// are scaled by the window's slowdown against refNominalS: they read as
// on a host where the kernel takes refNominalS. The report prints the
// raw values beside them.

// refNominalS is a round figure for the reference kernel's time on the
// 2-vCPU host the baseline was taken on; it ran 0.13–0.33 s there.
const refNominalS = 0.2

// referenceSeconds runs the reference kernel three times and returns the
// median wall time. On a contended host one run's time varies by ±10% or
// more from the next, and the median of three halves that.
func referenceSeconds() float64 {
	return median([]float64{kernelSeconds(), kernelSeconds(), kernelSeconds()})
}

// kernelSeconds runs the reference kernel once and returns its wall time:
// sorting, hashing and map updates over a few MB, about the mix of work
// the sweeps do.
func kernelSeconds() float64 {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint64, 1<<19)
	buf := make([]byte, 1<<21)
	m := make(map[uint64]int, 1<<17)
	for r := 0; r < 2; r++ {
		for i := range xs {
			xs[i] = rng.Uint64()
		}
		slices.Sort(xs)
		for i, x := range xs[:1<<17] {
			m[x>>7] += i
		}
		rng.Read(buf)
		sum := sha256.Sum256(buf)
		m[uint64(sum[0])]++
	}
	return time.Since(start).Seconds()
}

// slowdown is a window's slowdown against the nominal host, from the
// reference times taken right before and right after it.
func slowdown(before, after float64) float64 { return (before + after) / 2 / refNominalS }

// printHost reports the reference times and the run's median slowdown.
func printHost(refS, slow []float64) {
	fmt.Printf("host: reference kernel %.4f s; slowdown %.4f (median of %d windows) against %.2f s\n",
		refS, median(slow), len(slow), refNominalS)
}

// peakRSSMB reads a live process's peak resident set size (VmHWM). It
// counts only the process image after exec, unlike the rusage of a
// forked child, which starts from the parent's resident set.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
