package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the rule numpy and R call type 7); NaN when xs is
// empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentileLadder lists the high percentiles a timing may be reported
// at, highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75}

// highPercentile picks the highest percentile on the ladder that leaves
// at least ten of n samples beyond it, so a tail figure always rests on
// ten observations. ok is false when n is too small for any of them.
func highPercentile(n int) (p float64, ok bool) {
	for _, p := range percentileLadder {
		// Count beyond p, with a little slack for 99.9's binary rounding.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// summary is a timing series reduced the way the benchmark reports it:
// its sample count, median and, when the count allows, one high
// percentile.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// P names the high percentile reported in PValue; 0 when fewer
	// than eleven samples leave none with ten samples beyond it.
	P      float64 `json:"p,omitempty"`
	PValue float64 `json:"p_value,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	if p, ok := highPercentile(len(xs)); ok {
		s.P, s.PValue = p, quantile(xs, p/100)
	}
	return s
}
