package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; a tail resting on fewer samples is noise, not a measurement.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, lowest
// first.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile on tailLadder, capped at
// want, that leaves at least minBeyond of n samples beyond it. It returns
// 0 when even the median has too few samples beyond it.
func tailPercentile(n int, want float64) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if p > want {
			break
		}
		if n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of the p-th percentile among n sorted
// samples. The small slack keeps p·n/100 that should be whole (90% of
// 100) from rounding up past it.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule on a sorted copy, so the value is always one that was
// measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// failedFrac is failed ÷ attempted, counting a run that attempted nothing
// as wholly failed.
func failedFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// heapInuseMB returns the heap in use after a full collection, in MB.
func heapInuseMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapInuse) / (1 << 20)
}
