package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.99, 9.91}, {-1, 1}, {2, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile([7], 0.9) = %v, want 7", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("median reordered its input: %v", xs)
	}
	s := latencies{9, 1, 5, 3, 7}.summarize()
	if s.n != 5 || s.p50 != 5 || math.Abs(s.p99-8.92) > 1e-9 {
		t.Fatalf("summarize = %+v", s)
	}
}
