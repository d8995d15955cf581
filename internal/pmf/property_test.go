package pmf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genPMF builds an arbitrary valid PMF from fuzzer-provided raw material.
type genPMF struct {
	d *PMF
}

// Generate implements quick.Generator: random origin in [-8, 8), 1..12 bins,
// strictly positive masses, random tail in [0, 0.3).
func (genPMF) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(12)
	masses := make([]float64, n)
	for i := range masses {
		masses[i] = r.Float64() + 1e-3
	}
	origin := r.Intn(16) - 8
	tail := r.Float64() * 0.3
	return reflect.ValueOf(genPMF{New(origin, 1, masses, tail)})
}

func TestPropTotalMassIsOne(t *testing.T) {
	f := func(g genPMF) bool {
		return math.Abs(g.d.TotalMass()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConvolveConservesMass(t *testing.T) {
	f := func(a, b genPMF) bool {
		c := a.d.Convolve(b.d)
		return math.Abs(c.TotalMass()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConvolveCommutative(t *testing.T) {
	f := func(a, b genPMF) bool {
		return a.d.Convolve(b.d).Equal(b.d.Convolve(a.d), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConvolveMeanAdditiveNoTail(t *testing.T) {
	f := func(a, b genPMF) bool {
		// Only exact when there is no tail mass (tail location is a convention).
		an := New(a.d.Origin(), 1, a.d.p, 0)
		bn := New(b.d.Origin(), 1, b.d.p, 0)
		c := an.Convolve(bn)
		return math.Abs(c.Mean()-(an.Mean()+bn.Mean())) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCDFMonotone(t *testing.T) {
	f := func(g genPMF) bool {
		prev := -1.0
		for x := g.d.MinTime() - 2; x <= g.d.MaxTime()+2; x += 0.25 {
			c := g.d.ProbLE(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConditionMinNormalized(t *testing.T) {
	f := func(g genPMF, cutRaw uint8) bool {
		cut := g.d.MinTime() + float64(cutRaw%16)
		c := ConditionMinInto(nil, g.d, cut)
		if math.Abs(c.TotalMass()-1) > 1e-9 {
			return false
		}
		// No finite mass strictly before the cut.
		return c.ProbLE(cut-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConditionMinIdempotent(t *testing.T) {
	f := func(g genPMF, cutRaw uint8) bool {
		cut := g.d.MinTime() + float64(cutRaw%8)
		once := ConditionMinInto(nil, g.d, cut)
		twice := ConditionMinInto(nil, once, cut)
		return once.Equal(twice, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropShiftPreservesShape(t *testing.T) {
	f := func(g genPMF, kRaw int8) bool {
		k := float64(kRaw % 16)
		s := ConvolveInto(nil, g.d, Delta(k, 1))
		if math.Abs(s.TotalMass()-1) > 1e-9 {
			return false
		}
		return math.Abs(s.Mean()-g.d.Mean()-k) < 1e-6 || g.d.Tail() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropQuantileInverseOfCDF(t *testing.T) {
	f := func(g genPMF) bool {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if q > 1-g.d.Tail() {
				continue
			}
			x := g.d.Quantile(q)
			if math.IsInf(x, 1) {
				continue
			}
			if g.d.ProbLE(x)+1e-9 < q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropDeltaConvolutionShifts: convolving with a point mass, on either
// side, is exactly the reference shift.
func TestPropDeltaConvolutionShifts(t *testing.T) {
	f := func(g genPMF, kRaw int8) bool {
		k := float64(kRaw % 8)
		d := Delta(k, 1)
		want := refShift(g.d, k)
		return bitwiseEqual(ConvolveInto(nil, g.d, d), want) && bitwiseEqual(ConvolveInto(nil, d, g.d), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
