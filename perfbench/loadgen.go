package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a percentile needs above it before it
// is reported: p99 needs 1,000 samples, p90 needs 100, p50 needs 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples. It
// refuses, with an error, a quantile that has fewer than minBeyond samples
// beyond it, so a tail is never read off a handful of points.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// chunkedPercentile splits samples, in the order taken, into consecutive
// chunks just large enough for the q-quantile (1,000 for p99, 100 for p90)
// and returns the median of the chunks' quantiles. One stretch of outside
// interference then moves one chunk, not the run's tail. Samples past the
// last full chunk are left out.
func chunkedPercentile(samples []float64, q float64) (float64, error) {
	size := int(math.Ceil(minBeyond/(1-q) - 1e-9))
	if len(samples) < size {
		_, err := percentile(samples, q) // reports the shortfall
		return 0, err
	}
	var tails []float64
	for i := 0; i+size <= len(samples); i += size {
		v, err := percentile(samples[i:i+size], q)
		if err != nil {
			return 0, err
		}
		tails = append(tails, v)
	}
	return median(tails), nil
}

// median is the plain median of samples (0 for none); per-layer figures use
// it where a handful of samples is all a layer gets.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[m]
	}
	return (sorted[m-1] + sorted[m]) / 2
}

func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop describes a fixed-rate request schedule: request i is due at
// start + i*interval, whatever happened to the requests before it.
type openLoop struct {
	start    time.Time
	interval time.Duration
	count    int
	// sleepUntil blocks until t or ctx is done (tests inject a late one).
	sleepUntil func(ctx context.Context, t time.Time) error
}

// loadResult is one request of an open-loop run. Latency runs from the
// request's due time, not its send time, so a stall also charges the wait
// it imposes on every request scheduled behind it.
type loadResult struct {
	index   int
	latency time.Duration // completion - due
	late    time.Duration // dispatcher wake-up - due: the generator's own lag
	err     error
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run issues the schedule over one connection's worth of concurrency: a
// dispatcher releases each request at its due time into a queue, and one
// worker sends them in order. A slow response therefore delays the requests
// queued behind it, and their due-time latency shows it. run returns once
// every released request has completed or ctx is done.
func (l openLoop) run(ctx context.Context, do func(ctx context.Context, i int) error) []loadResult {
	sleep := l.sleepUntil
	if sleep == nil {
		sleep = sleepUntil
	}
	type job struct {
		i    int
		due  time.Time
		late time.Duration
	}
	// Sized to the whole schedule so the dispatcher never waits on the
	// worker: a blocked dispatcher would hide exactly the backlog measured.
	queue := make(chan job, l.count)
	go func() {
		defer close(queue)
		for i := 0; i < l.count; i++ {
			due := l.start.Add(time.Duration(i) * l.interval)
			if sleep(ctx, due) != nil {
				return
			}
			queue <- job{i: i, due: due, late: time.Since(due)}
		}
	}()
	results := make([]loadResult, 0, l.count)
	for j := range queue {
		if ctx.Err() != nil {
			continue // drain: the dispatcher stops at its next wake-up
		}
		err := do(ctx, j.i)
		results = append(results, loadResult{index: j.i, latency: time.Since(j.due), late: j.late, err: err})
	}
	return results
}
