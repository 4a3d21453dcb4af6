package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"time"
)

// arrivals spreads rate×dur arrivals over dur: one per 1/rate slot, at a
// seeded uniform offset inside its slot. Arrivals are as irregular as a
// user population and never bunch more than two to a slot width, so
// the latency of a run tracks the service, not the luck of the draw.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	slot := float64(time.Second) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return out
}

// runOpenLoop sends arrival i at start+dues[i] through at most senders
// concurrent calls of send, whatever the service's speed: the loop is
// open. send receives the due time, not the time it was called, so a
// latency it measures from there charges the wait a stalled request
// imposed on the arrivals queued behind it. runOpenLoop returns each
// arrival's lag, how late the generator handed it to a sender.
func runOpenLoop(start time.Time, dues []time.Duration, senders int, send func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, len(dues))
	next := make(chan int) // unbuffered: busy senders hold the generator back, and the lag shows it
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				due := start.Add(dues[i])
				lags[i] = time.Since(due)
				send(i, due)
			}
		}()
	}
	for i, d := range dues {
		sleepUntil(start.Add(d))
		next <- i
	}
	close(next)
	wg.Wait()
	return lags
}

// spinWindow is how long before a due time the generator stops sleeping
// and polls the clock instead. Go's timers fire up to a millisecond
// late on Linux (time.Sleep overslept by 0.1-1.1 ms, median 0.65 ms, on
// a 2-core x86-64 VM), which would add a third of a replay job's
// latency at the base rate, in a uniform spread that has nothing to do
// with the service.
const spinWindow = 1200 * time.Microsecond

// sleepUntil returns at t, give or take a few microseconds: it sleeps
// until spinWindow before t, then yields the processor until t so that
// the service's goroutines run in the meantime.
func sleepUntil(t time.Time) {
	if wait := time.Until(t) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
