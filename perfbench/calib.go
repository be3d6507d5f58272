package main

import (
	"runtime/debug"
	"sort"
	"time"
)

// The host's speed drifts: on a shared 2-CPU host the same set-up phase
// took from 1.4 to 2.3 s of host time between invocations minutes apart,
// and process CPU time drifted with it. setup_s therefore scales each
// set-up phase by a calibration: a fixed piece of work that uses none of
// the program's code, timed just before and just after the phase. Work
// the program adds to set-up still shows in full; a host that runs
// everything slower does not.

// calibRefS is the calibration's host seconds at the reference host
// speed, about its median on the 2-CPU host the benchmark was tuned on,
// so setup_s reads close to that host's own seconds.
const calibRefS = 0.030

// calibBlocks is how many times calibrate times the work; it returns the
// median, so a block the scheduler interrupts does not count.
const calibBlocks = 9

// calibSink keeps the calibration's results alive.
var calibSink uint64

// calibrate returns the host seconds of the calibration work: the median
// of calibBlocks blocks, each twice filling a map and sorting a slice of
// pseudo-random numbers, a mix of arithmetic, hashing, allocation and
// memory traffic like the simulation's.
func calibrate() float64 {
	debug.FreeOSMemory() // start from the state every run starts from
	blocks := make([]float64, calibBlocks)
	for i := range blocks {
		start := time.Now()
		for rep := 0; rep < 2; rep++ {
			x := uint64(88172645463325252)
			m := make(map[uint64]uint64, 1<<14)
			fs := make([]float64, 1<<16)
			for j := range fs {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				fs[j] = float64(x>>11) / (1 << 53)
				m[x&(1<<18-1)] += x
			}
			sort.Float64s(fs)
			calibSink += uint64(len(m)) + uint64(fs[len(fs)/2]*1e6)
		}
		blocks[i] = time.Since(start).Seconds()
	}
	return medianOf(blocks)
}
