package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of samples by nearest rank (0 when empty).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// quartiles returns the 25th, 50th and 75th percentiles.
func quartiles(samples []float64) [3]float64 {
	return [3]float64{quantile(samples, 0.25), quantile(samples, 0.5), quantile(samples, 0.75)}
}

// tailQuantile is the highest percentile, at most the 99th, that leaves at
// least ten samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// windows is how many equal windows a measured run is split into; the
// reported timings and rates are medians over the windows, so a burst of
// host noise confined to a few of them does not move the result.
const windows = 5

// samples are per-operation latencies with their completion times.
type samples struct {
	ms []float64
	at []time.Duration // since the start of the measured run
}

func (s *samples) add(start time.Time, d time.Duration) {
	s.ms = append(s.ms, ms(d))
	s.at = append(s.at, time.Since(start))
}

// windowStats splits a run of length dur into the fixed windows and returns
// each window's median latency, tail latency (tailQuantile of its sample
// count) and completed operations per second. Operations that completed
// after dur count in the last window.
func (s *samples) windowStats(dur time.Duration) (p50, tail, rate []float64) {
	per := make([][]float64, windows)
	for i, d := range s.ms {
		w := min(int(s.at[i]*windows/dur), windows-1)
		per[w] = append(per[w], d)
	}
	for _, v := range per {
		p50 = append(p50, quantile(v, 0.5))
		tail = append(tail, quantile(v, tailQuantile(len(v))))
		rate = append(rate, float64(len(v))/(dur.Seconds()/windows))
	}
	return p50, tail, rate
}
