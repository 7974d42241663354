package main

// Machine-phase calibration.
//
// Shared machines run in phases: while other tenants contend for the same
// cores, every operation runs up to 1.6× slower, and a phase lasts seconds
// to minutes — longer than an operation, often longer than a run. So
// after each unit of work, while the program is idle, the benchmark
// measures a fixed reference and divides the unit's time by the
// reference's slowdown against its nominal figure. The simulator
// workloads, single-process and CPU-bound, use the kernel below; serve-http
// uses a bare loopback server (http.go). The references are the
// benchmark's own code; what a program change can still do to them is
// leave the cache cold or a collection running, and refKernel guards
// against both (see there and README.md for the measured size of what
// remains).

import (
	"math"
	"time"
)

// refNominalS is the reference kernel's time on an uncontended core of the
// machine the benchmark was written on (an Intel Xeon at 2 vCPUs).
const refNominalS = 2.0e-3

var (
	refBuf  = make([]uint64, 1<<15) // 256 KiB: resident in L2, like the queues
	refSink uint64
)

// refKernel times a fixed mix of integer arithmetic and dependent random
// accesses into refBuf and returns its slowdown against refNominalS. An
// untimed pass first brings refBuf back into cache, so the memory the
// operation before it touched does not slow it. The timed passes run in
// refSlices slices and the fastest slice counts, so a collection the
// operation left running in the background slows at most the slices it
// overlaps. It runs under the role=harness label, which the module ledger
// leaves out, and its whole time is added to harnessS.
func refKernel() float64 {
	var secs float64
	withRole("harness", func() {
		start := time.Now()
		refPasses(1)
		best := math.Inf(1)
		for s := 0; s < refSlices; s++ {
			t0 := time.Now()
			refPasses(refSlicePasses)
			best = min(best, time.Since(t0).Seconds())
		}
		secs = best * refSlices
		harnessS += time.Since(start).Seconds()
	})
	return secs / refNominalS
}

// harnessS is the CPU time the benchmark has spent in refKernel; the
// runtime figures (readRT) leave it out of the program's busy time.
var harnessS float64

const (
	refSlices      = 5
	refSlicePasses = 4
)

func refPasses(n int) {
	x := uint64(1)
	for pass := 0; pass < n; pass++ {
		for i := range refBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (uint64(len(refBuf)) - 1)
			refBuf[j] += x
			refBuf[i] ^= refBuf[j]
		}
	}
	refSink += x
}

// atNominal divides each unit time by the slowdown measured next to it:
// the unit's time on an uncontended machine.
func atNominal(unitS, slowdown []float64) []float64 {
	out := make([]float64, len(unitS))
	for i, u := range unitS {
		out[i] = u / slowdown[i]
	}
	return out
}
