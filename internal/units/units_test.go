package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClamp01Property(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		got := Clamp01(v)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampIdempotent(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		once := Clamp(v, -3, 7)
		return Clamp(once, -3, 7) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(0, 10, 0.5); got != 5 {
		t.Errorf("Lerp(0,10,0.5) = %v, want 5", got)
	}
	if got := Lerp(2, 2, 0.9); got != 2 {
		t.Errorf("Lerp(2,2,0.9) = %v, want 2", got)
	}
	if got := Lerp(1, 3, 0); got != 1 {
		t.Errorf("Lerp(1,3,0) = %v, want 1", got)
	}
	if got := Lerp(1, 3, 1); got != 3 {
		t.Errorf("Lerp(1,3,1) = %v, want 3", got)
	}
}

func TestLerpEndpointsProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e100 || math.Abs(b) > 1e100 {
			return true // avoid overflow in b-a
		}
		return Lerp(a, b, 0) == a && Lerp(a, b, 1) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
