package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: rootSpan, Start: 0, End: 10 * time.Second},
		{ID: 1, Parent: 0, Name: "reorder", Start: time.Second, End: 4 * time.Second},
		{ID: 2, Parent: 0, Name: "stoch.pack", Start: 4 * time.Second, End: 9 * time.Second},
		{ID: 3, Parent: 2, Name: "inner", Start: 5 * time.Second, End: 7 * time.Second},
	}}
	rows, wall := tr.selfTimes()
	if wall != 10 {
		t.Fatalf("job wall %v, want 10", wall)
	}
	want := map[string]float64{rootSpan: 2, "reorder": 3, "stoch.pack": 3, "inner": 2}
	var sum float64
	for _, r := range rows {
		if r.SelfS != want[r.Layer] || r.Calls != 1 {
			t.Errorf("%s: self %v calls %d, want %v and 1", r.Layer, r.SelfS, r.Calls, want[r.Layer])
		}
		sum += r.Share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if rows[0].SelfS < rows[len(rows)-1].SelfS {
		t.Error("rows not sorted by self time")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample")
	}
}
