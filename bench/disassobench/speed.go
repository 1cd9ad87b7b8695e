package main

import (
	"math/rand/v2"
	"slices"
	"syscall"
	"time"
)

// refNominalMS is roughly what one speedRef sample takes on the 2-vCPU VM
// the benchmark was calibrated on, in a quiet period.
const refNominalMS = 150.0

// speedRef times a fixed amount of work that uses none of the code under
// test: it fills and sorts 8 MiB of pseudo-random keys and indexes a
// quarter of them in a map, so it leans on the memory system the way a
// publish does. The machine the benchmark runs on is shared, and its speed
// drifts by up to 2x over minutes and hours, with every operation kind,
// restarts included, slowing and recovering together. The runner samples the
// reference whenever the server is idle or stopped, next to the operations
// of each phase, and reports times divided by how much slower than
// refNominalMS the reference ran in that phase (bench/README.md has the
// measurements).
type speedRef struct {
	keys []uint64
	sink int
}

// sample runs the reference once and returns its wall time in ms.
func (s *speedRef) sample() float64 {
	if s.keys == nil {
		s.keys = make([]uint64, 1<<20)
	}
	t0 := time.Now()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range s.keys {
		s.keys[i] = rng.Uint64()
	}
	slices.Sort(s.keys)
	m := make(map[uint64]int32, 1<<16)
	for i := 0; i < 1<<18; i++ {
		m[s.keys[4*i]] = int32(i)
	}
	s.sink += len(m)
	return ms(time.Since(t0))
}

// slowdown is how much slower than nominal the reference ran, from its
// samples in one phase.
func slowdown(samples []float64) float64 {
	return median(samples) / refNominalMS
}

// cpuSeconds is the user and system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
