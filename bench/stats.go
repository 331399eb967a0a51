package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is a sample set reduced to the numbers every table prints: the
// median, the first and third quartiles, and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes median and quartiles with the same conventions as
// Python's statistics.median and statistics.quantiles(n=4) (the default
// "exclusive" method), so spreads read the same in every tool.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, N: len(s)}
}

// spread is the interquartile range as a share of the median; 0 when the
// median is 0.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice: the middle value, or the mean of the two
// middle values.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of an ascending slice by the exclusive method: cut points at
// positions i(n+1)/4, linearly interpolated, clamped to the data.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Verdicts of a comparison between a parent set (A) and a change (B).
const (
	verdictImproved   = "improved"
	verdictFlat       = "flat"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies a metric's regression bound to the per-run values of two
// sets. The change is worse when its median is worse than the parent's by
// more than the bound, and improved when better by more than the bound.
// When either side's run-to-run spread (IQR over median) is wider than the
// bound the medians cannot be trusted to that precision: the result is
// unresolved, unless every run of the change reads better than every run
// of the parent. It also returns the signed relative change of the median
// (positive = worse).
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	sa, sb := summarize(a), summarize(b)
	if sa.N == 0 || sb.N == 0 {
		return verdictUnresolved, 0
	}
	worse := 0.0
	if sa.Median != 0 {
		worse = (sb.Median - sa.Median) / math.Abs(sa.Median)
	} else if sb.Median != 0 {
		worse = math.Inf(1)
	}
	if !lowerIsBetter {
		worse = -worse
	}
	if math.Max(sa.spread(), sb.spread()) > bound {
		if allBetter(a, b, lowerIsBetter) {
			return verdictImproved, worse
		}
		return verdictUnresolved, worse
	}
	switch {
	case worse > bound:
		return verdictWorse, worse
	case worse < -bound:
		return verdictImproved, worse
	default:
		return verdictFlat, worse
	}
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	sa, sb := sorted(a), sorted(b)
	if lowerIsBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// pct formats a share as a signed percentage.
func pct(x float64) string {
	if math.IsInf(x, 0) {
		return "inf"
	}
	return fmt.Sprintf("%+.1f%%", 100*x)
}
