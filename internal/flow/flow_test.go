package flow

import (
	"math"
	"testing"
)

func TestJain(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"all-zero", []float64{0, 0, 0}, 0},
		{"equal", []float64{5, 5, 5, 5}, 1},
		{"single", []float64{42}, 1},
		{"one-hog", []float64{100, 0, 0, 0}, 0.25},
		{"two-to-one", []float64{2, 1}, 0.9},
	}
	for _, c := range cases {
		if got := Jain(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Jain(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
}

func TestJainBounds(t *testing.T) {
	// For any non-degenerate allocation the index lies in (1/n, 1].
	xs := []float64{1, 3, 9, 27, 81}
	j := Jain(xs)
	if j <= 1/float64(len(xs)) || j > 1 {
		t.Fatalf("Jain(%v) = %v out of (1/n, 1]", xs, j)
	}
}
