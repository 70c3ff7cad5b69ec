package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 2, 2}, 2},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// A high percentile is reported only when at least ten samples lie
// beyond it.
func TestHighPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // 0: none qualifies
	}{
		{0, 0}, {3, 0}, {11, 0}, {39, 0},
		{40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		p, ok := highPercentile(c.n)
		if !ok {
			p = 0
		}
		if p != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, p, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 100 || s.Median != 50.5 || s.P != 90 || math.Abs(s.PValue-90.1) > 1e-9 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	if s := summarize([]float64{1, 2, 3}); s.P != 0 || s.Median != 2 {
		t.Errorf("summarize of three samples = %+v, want a median and no percentile", s)
	}
}

func TestUnstolen(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, c := range []struct {
		name                   string
		wall, cpu, steal, want time.Duration
	}{
		{"no steal", ms(1000), ms(990), 0, ms(1000)},
		{"one busy vCPU bears all the steal", ms(1000), ms(900), ms(100), ms(900)},
		{"two busy vCPUs share it", ms(1000), ms(2000), ms(200), ms(900)},
		{"busy capped at the vCPU count", ms(1000), ms(4000), ms(200), ms(900)},
		{"steal the busy vCPUs cannot explain", ms(100), ms(50), ms(150), ms(100)},
	} {
		if got := unstolen(c.wall, c.cpu, c.steal, 2); got != c.want {
			t.Errorf("%s: unstolen(%v, %v, %v) = %v, want %v", c.name, c.wall, c.cpu, c.steal, got, c.want)
		}
	}
}
