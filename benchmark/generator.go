package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// poissonSchedule returns the due times (offsets from the generator's
// start) of a Poisson arrival stream at rate per second, covering
// [0, length). The same seed gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return due
		}
		due = append(due, d)
	}
}

// runOpenLoop sends request i to sink at start+due[i], on schedule
// regardless of how the system responds: when sink blocks, the requests
// that fell due meanwhile are sent as soon as it returns, and their latency
// — timed by the caller from the due time, not the send time — carries the
// wait. sink returns false to end the loop before request i. It returns how
// late each request sent was handed to sink.
func runOpenLoop(start time.Time, due []time.Duration, sink func(i int) bool) []time.Duration {
	// The wait is a raw nanosleep on a thread of the generator's own. A
	// time.Sleep timer belongs to the scheduler context that armed it, and
	// while that context sits in one of the replicas' fsyncs nothing fires
	// the timer: on two cores that made the median request 0.7 ms late.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	lag := make([]time.Duration, len(due))
	for i, d := range due {
		for wait := d - time.Since(start); wait > 0; wait = d - time.Since(start) {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil) // a signal ends it early; the loop sleeps the rest
		}
		lag[i] = time.Since(start) - d
		if !sink(i) {
			return lag[:i]
		}
	}
	return lag
}
