package main

import (
	"sort"
	"time"
)

// calibRef is the calibration kernel's CPU time on the reference host.
// Set-up and job times are reported as they would read there: a CPU
// time t is scaled by calibRef over the kernel's CPU time around t.
//
// On a shared host the CPU time of the same job moves by up to 1.8x
// from one stretch of seconds or minutes to the next, as neighbours
// compete for the core's caches and memory bandwidth. The kernel runs
// benchmark-owned code that no change to the program touches, between
// every two jobs, so it slows down with the job and its time cancels
// that movement. Its parts follow what the workloads do: map inserts
// of small heap objects (allocation, hashing, pointer loads), a sort
// (compare-and-branch) and, for a workload whose jobs are mostly
// copying, 1 MiB copies.
const calibRef = 40 * time.Millisecond

type calibNode struct {
	next *calibNode
	v    [3]uint64
}

var calibSink uint64

// calibrator runs the kernel with a workload's number of 1 MiB copies.
// It keeps the copy buffers from one run to the next, so that the
// kernel times copying, not page faults on fresh pages.
type calibrator struct {
	copies   int
	src, dst []byte
}

func newCalibrator(copies int) *calibrator {
	c := &calibrator{copies: copies}
	if copies > 0 {
		c.src, c.dst = make([]byte, 1<<20), make([]byte, 1<<20)
	}
	return c
}

// run runs the calibration kernel, a fixed amount of work, and returns
// the CPU time it took.
func (c *calibrator) run() time.Duration {
	start := cpuTime()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint64]*calibNode, 1<<14)
	for i := 0; i < 100_000; i++ {
		k := next() & (1<<16 - 1)
		if n, ok := m[k]; ok {
			calibSink += n.v[0]
		}
		m[k] = &calibNode{next: m[k^1], v: [3]uint64{k}}
	}
	s := make([]uint64, 1<<15)
	for i := range s {
		s[i] = next()
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	calibSink += s[len(s)/2]
	for i := 0; i < c.copies; i++ {
		c.src[i] = byte(i)
		copy(c.dst, c.src)
		calibSink += uint64(c.dst[7])
	}
	return cpuTime() - start
}
