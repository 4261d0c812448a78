package main

import (
	"sort"
	"time"
)

// The box this benchmark was written on has two shared virtual CPUs
// whose speed changes under the process for a second or more at a
// time: the median request of one round of a read-only workload took
// 10.4 µs and that of a round a second later 17 µs, and the plain
// median of a ten-second run moved between 11.4 and 13.6 µs from one
// run to the next. Timing a register-only loop and a pointer chase
// around each round, and keeping the rounds whose loops ran at full
// speed, did not help: the loops' times and the rounds' medians were
// almost uncorrelated (0.08 to 0.37), and spreads stayed at 16 to 30 %.
// What does repeat is the fast end of a run: the tenth percentile of
// the rounds' medians was 10.77, 10.54 and 10.62 µs in those same runs.
//
// So a run is cut into short rounds of identical work, each round is
// scored by the median latency of the requests in it, and the rounds
// within quietBand of the run's tenth-percentile score are the quiet
// ones. Every sample of a quiet round is pooled, tail included: the
// score is a median, so a round is not dropped for the rare slow
// request the program itself causes, only for a slowdown that reaches
// most of its requests.

const (
	quietBand    = 1.05 // a score within 5 % of the reference is at full speed
	quietRef     = 0.10 // the reference is this quantile of the scores
	disturbedLow = 0.25 // a run with a smaller quiet share is marked disturbed
	p99MinSample = 1000 // a p99 needs ten samples beyond it
	calSpins     = 700_000
)

// quietRounds returns the indexes of the rounds whose score is within
// quietBand of the quietRef quantile of all scores, in order.
func quietRounds(scores []float64) []int {
	if len(scores) == 0 {
		return nil
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	limit := quietBand * percentile(sorted, quietRef)
	var rounds []int
	for i, s := range scores {
		if s <= limit {
			rounds = append(rounds, i)
		}
	}
	return rounds
}

var spinSink uint64

//go:noinline
func spin(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// calibrate times a register-only loop, about 1.5 ms on the reference
// box, and returns the fastest of five in microseconds: the run
// record's measure of how fast the core was.
func calibrate() float64 {
	best := 0.0
	for i := 0; i < 5; i++ {
		start := time.Now()
		spinSink += spin(calSpins)
		if d := us(time.Since(start)); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
