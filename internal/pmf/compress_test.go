package pmf

import (
	"math"
	"math/rand"
	"testing"
)

func randomPMF(r *rand.Rand) *PMF {
	n := 1 + r.Intn(64)
	masses := make([]float64, n)
	for i := range masses {
		if r.Intn(4) > 0 {
			masses[i] = r.Float64()
		}
	}
	// Guarantee positive total mass.
	masses[r.Intn(n)] += 0.1 + r.Float64()
	tail := 0.0
	if r.Intn(3) == 0 {
		tail = r.Float64() * 0.2
	}
	return New(r.Intn(20)-5, 0.5, masses, tail)
}

// TestCompressTailErrorBound asserts the documented invariant on random
// PMFs: tail grows by at most eps, and ProbLE decreases by at most eps and
// never increases (the compression is conservative).
func TestCompressTailErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(0xc0135))
	for iter := 0; iter < 500; iter++ {
		d := randomPMF(r)
		eps := []float64{1e-12, 1e-6, 1e-3, 0.05, 0.3}[r.Intn(5)]
		c := d.Clone().CompressTailInPlace(eps)
		if got := c.Tail() - d.Tail(); got < -1e-15 || got > eps+1e-12 {
			t.Fatalf("iter %d: tail grew by %v, want within [0, %v]", iter, got, eps)
		}
		if c.NumBins() > d.NumBins() {
			t.Fatalf("iter %d: support grew from %d to %d bins", iter, d.NumBins(), c.NumBins())
		}
		if c.NumBins() < 1 {
			t.Fatalf("iter %d: support emptied", iter)
		}
		if math.Abs(c.TotalMass()-d.TotalMass()) > 1e-12 {
			t.Fatalf("iter %d: total mass changed: %v vs %v", iter, c.TotalMass(), d.TotalMass())
		}
		// Probe ProbLE across and beyond the original support.
		for probe := d.MinTime() - d.Width(); probe <= d.MaxTime()+2*d.Width(); probe += d.Width() / 2 {
			drop := d.ProbLE(probe) - c.ProbLE(probe)
			if drop < -1e-12 {
				t.Fatalf("iter %d: ProbLE(%v) increased by %v after compression", iter, probe, -drop)
			}
			if drop > eps+1e-12 {
				t.Fatalf("iter %d: ProbLE(%v) dropped by %v, above eps %v", iter, probe, drop, eps)
			}
		}
	}
}

func TestCompressTailNoOpForNonPositiveEps(t *testing.T) {
	d := New(0, 1, []float64{0.2, 0.3, 0.5}, 0)
	for _, eps := range []float64{0, -1} {
		c := d.Clone()
		if got := c.CompressTailInPlace(eps); got != c || !bitwiseEqual(c, d) {
			t.Fatalf("eps %v: expected the receiver back unchanged", eps)
		}
	}
}

func TestCompressTailKeepsAtLeastOneBin(t *testing.T) {
	c := New(3, 1, []float64{1e-6}, 0.9).CompressTailInPlace(0.5)
	if c.NumBins() != 1 {
		t.Fatalf("bins = %d, want 1", c.NumBins())
	}
	if c.Mass(3) == 0 {
		t.Fatalf("sole bin lost its mass: %v", c)
	}
}

func TestCompressTailFoldsSuffix(t *testing.T) {
	c := New(0, 1, []float64{0.5, 0.3, 0.1, 0.06, 0.04}, 0).CompressTailInPlace(0.1)
	// The suffix {0.06, 0.04} has mass 0.1 <= eps; adding 0.1 would exceed.
	if c.NumBins() != 3 {
		t.Fatalf("bins = %d, want 3 (%v)", c.NumBins(), c)
	}
	if math.Abs(c.Tail()-0.1) > 1e-15 {
		t.Fatalf("tail = %v, want 0.1", c.Tail())
	}
}

func TestCompressTailInPlaceMutates(t *testing.T) {
	d := New(0, 1, []float64{0.5, 0.3, 0.1, 0.06, 0.04}, 0)
	c := d.CompressTailInPlace(0.1)
	if c != d {
		t.Fatalf("expected the receiver back")
	}
	if d.NumBins() != 3 || math.Abs(d.Tail()-0.1) > 1e-15 {
		t.Fatalf("in-place compression wrong: %v", d)
	}
}

// TestCompressTailMatchesInPlace: CompressTailInPlace matches the plain
// reference bit for bit.
func TestCompressTailMatchesInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		d := randomPMF(r)
		eps := r.Float64() * 0.2
		want := refCompressTail(d, eps)
		if got := d.Clone().CompressTailInPlace(eps); !bitwiseEqual(got, want) {
			t.Fatalf("iter %d: got %v, want %v", iter, got, want)
		}
	}
}
