package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	At    time.Duration // offset from the phase start
	Model int           // index into the phase's model mix
	Input int           // index into that model's input pool
}

// poissonSchedule draws Poisson arrivals at rps over dur, each with a
// uniformly chosen model and input.
func poissonSchedule(rng *rand.Rand, rps float64, dur time.Duration, models, inputs int) []arrival {
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{At: at, Model: rng.IntN(models), Input: rng.IntN(inputs)})
	}
}

// outcome is what the generator saw of one request.
type outcome struct {
	Due, Sent, Done time.Time
	Err             error
}

// Latency is timed from when the request was due, so a stall that holds
// back later sends shows in their latency too.
func (o outcome) Latency() time.Duration { return o.Done.Sub(o.Due) }

// Late is how far behind schedule the generator sent the request.
func (o outcome) Late() time.Duration { return o.Sent.Sub(o.Due) }

// openLoop sends every arrival of sched at start+At, each on its own
// goroutine so a slow reply never delays a later send, and returns once
// every request has finished. An arrival that is already due is sent at
// once: when the generator falls behind it catches up instead of
// dropping arrivals. send gets the arrival's index and due time.
func openLoop(start time.Time, sched []arrival, send func(i int, due time.Time) error) []outcome {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		sent := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := send(i, due)
			out[i] = outcome{Due: due, Sent: sent, Done: time.Now(), Err: err}
		}()
	}
	wg.Wait()
	return out
}
