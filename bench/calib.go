package main

import (
	"sync"
	"time"
)

// The recording host is a shared two-core VM whose speed drifts by a third
// over minutes (neighbours on the same cores and memory), which is more
// than any bound a regression check could use. So every run also times a
// fixed calibration loop that never touches the simulator, and the
// end-to-end times are reported scaled to the speed that loop saw: a slow
// phase of the host slows both and cancels, a slower simulator does not.
//
// The loop is a dependent walk through a 4 MB table (memory latency) and a
// channel ping-pong between two goroutines (scheduler hand-off), run on
// every processor at once. Of the mixes tried (README.md, "Calibration"),
// this one tracked the five workloads' slow phases most closely.

const (
	calibSteps  = 100_000
	calibTrips  = 5_000
	calibTblLen = 1 << 20
	// calibRefMS is what one calibration takes on the recording host in a
	// quiet phase. It only fixes the scale of the normalized numbers.
	calibRefMS = 12.5
)

var (
	calibOnce  sync.Once
	calibTable []uint32
	calibSink  uint32
)

// buildCalibTable fills the table with one cycle through all its entries
// (Sattolo's shuffle from a fixed xorshift stream), so a walk never settles
// into a short loop that fits in cache.
func buildCalibTable() {
	calibTable = make([]uint32, calibTblLen)
	for i := range calibTable {
		calibTable[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := calibTblLen - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		calibTable[i], calibTable[j] = calibTable[j], calibTable[i]
	}
}

// calibrate runs the loop once on nproc goroutines and returns its wall
// time in ms.
func calibrate(nproc int) float64 {
	calibOnce.Do(buildCalibTable)
	var wg sync.WaitGroup
	ends := make([]uint32, nproc)
	t0 := time.Now()
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := uint32(g)
			for i := 0; i < calibSteps; i++ {
				idx = calibTable[idx]
			}
			ends[g] = idx

			ping, pong := make(chan int), make(chan int)
			go func() {
				for v := range ping {
					pong <- v
				}
				close(pong)
			}()
			for i := 0; i < calibTrips; i++ {
				ping <- i
				<-pong
			}
			close(ping)
			<-pong // the echo goroutine has ended
		}()
	}
	wg.Wait()
	d := ms(time.Since(t0))
	for _, e := range ends {
		calibSink += e // keeps the walk from being optimized away
	}
	return d
}

// hostSpeed turns a run's calibration samples into its speed relative to
// the reference: 1 at the reference speed, below 1 on a slower host or in a
// slow phase. Interference only ever adds time, so the lower quartile of the
// samples is the estimate least disturbed by it.
func hostSpeed(samples []float64) float64 {
	return calibRefMS / percentile(samples, 0.25)
}
