package pmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bitwiseEqual reports exact (bit-for-bit) equality of two PMFs — the
// guarantee the kernels make relative to the plain reference.
func bitwiseEqual(a, b *PMF) bool {
	if a.origin != b.origin || a.width != b.width || len(a.p) != len(b.p) {
		return false
	}
	if math.Float64bits(a.tail) != math.Float64bits(b.tail) {
		return false
	}
	for i := range a.p {
		if math.Float64bits(a.p[i]) != math.Float64bits(b.p[i]) {
			return false
		}
	}
	return true
}

// dirtyDst returns a scratch-like destination pre-filled with garbage, to
// prove Into-operations fully overwrite their destination.
func dirtyDst(r *rand.Rand) *PMF {
	n := r.Intn(20)
	p := make([]float64, n)
	for i := range p {
		p[i] = r.Float64() * 100
	}
	return &PMF{origin: r.Intn(100) - 50, width: r.Float64() + 0.1, p: p, tail: r.Float64()}
}

// TestPropConvolveIntoBitwiseEqualsImmutable: the allocating Convolve and
// ConvolveInto into a fresh or a dirty destination all equal the plain
// reference convolution bit for bit.
func TestPropConvolveIntoBitwiseEqualsImmutable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(a, b genPMF) bool {
		want := refConvolve(a.d, b.d, DefaultMaxBins)
		intoFresh := ConvolveInto(nil, a.d, b.d)
		intoDirty := ConvolveInto(dirtyDst(r), a.d, b.d)
		return bitwiseEqual(want, a.d.Convolve(b.d)) && bitwiseEqual(want, intoFresh) && bitwiseEqual(want, intoDirty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConvolveMaxIntoBitwiseEqualsImmutable(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func(a, b genPMF, capRaw uint8) bool {
		maxBins := 1 + int(capRaw)%16 // small caps force tail folding
		want := refConvolve(a.d, b.d, maxBins)
		got := ConvolveMaxInto(dirtyDst(r), a.d, b.d, maxBins)
		return bitwiseEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConditionMinVariantsBitwiseEqual(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func(g genPMF, cutRaw int8) bool {
		cut := g.d.MinTime() + float64(cutRaw%24) // below, inside and past the support
		want := refConditionMin(g.d, cut)
		intoFresh := ConditionMinInto(nil, g.d, cut)
		intoDirty := ConditionMinInto(dirtyDst(r), g.d, cut)
		return bitwiseEqual(want, intoFresh) && bitwiseEqual(want, intoDirty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropShiftInPlaceBitwiseEqualsShift: the allocation-free shift — a
// DeltaInto and a ConvolveInto through dirty scratch buffers — equals the
// reference shift bit for bit, including shifts that round to a bin.
func TestPropShiftInPlaceBitwiseEqualsShift(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := func(g genPMF, kRaw int8) bool {
		k := float64(kRaw) / 3
		got := ConvolveInto(dirtyDst(r), g.d, DeltaInto(dirtyDst(r), k, 1))
		return bitwiseEqual(refShift(g.d, k), got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCopyIntoAndDeltaInto(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	f := func(g genPMF, tRaw int8) bool {
		cp := CopyInto(dirtyDst(r), g.d)
		if !bitwiseEqual(cp, g.d) {
			return false
		}
		t := float64(tRaw) / 3
		return bitwiseEqual(DeltaInto(dirtyDst(r), t, 1), Delta(t, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveIntoRejectsAliasedDst(t *testing.T) {
	a := Delta(1, 1)
	b := Delta(2, 1)
	for _, dst := range []*PMF{a, b} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for aliased destination")
				}
			}()
			ConvolveInto(dst, a, b)
		}()
	}
}

func TestConditionMinIntoRejectsAliasedDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for aliased destination")
		}
	}()
	d := New(0, 1, []float64{0.25, 0.25, 0.25, 0.25}, 0)
	ConditionMinInto(d, d, 2)
}

func TestCopyIntoSelfIsNoop(t *testing.T) {
	d := New(3, 1, []float64{0.5, 0.5}, 0)
	if CopyInto(d, d) != d {
		t.Fatal("CopyInto(d, d) must return d unchanged")
	}
}

func TestScratchRecyclesBuffers(t *testing.T) {
	s := &Scratch{}
	a := New(0, 1, []float64{0.5, 0.5}, 0)
	d1 := ConvolveInto(s.Get(), a, a)
	s.Put(d1)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	d2 := s.Get()
	if d2 != d1 {
		t.Fatal("Get after Put should return the recycled buffer")
	}
	// The recycled buffer must be fully usable as a destination.
	got := ConvolveInto(d2, a, a)
	if !bitwiseEqual(got, refConvolve(a, a, DefaultMaxBins)) {
		t.Fatal("recycled buffer produced a wrong convolution")
	}
}

func TestNilScratchIsValid(t *testing.T) {
	var s *Scratch
	if d := s.Get(); d == nil {
		t.Fatal("nil scratch Get returned nil")
	}
	s.Put(&PMF{}) // must not panic
	if s.Len() != 0 {
		t.Fatal("nil scratch Len must be 0")
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	s := GetScratch()
	if s == nil {
		t.Fatal("GetScratch returned nil")
	}
	s.Put(&PMF{})
	PutScratch(s)
	PutScratch(nil) // must not panic
}

// TestChainedInPlaceMatchesImmutableChain mirrors the machine-queue usage:
// a deep chain of convolutions through one scratch must equal the chain of
// reference convolutions bit for bit.
func TestChainedInPlaceMatchesImmutableChain(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pets := make([]*PMF, 8)
	for i := range pets {
		pets[i] = genPMF{}.Generate(r, 0).Interface().(genPMF).d
	}
	anchor := Delta(5, 1)

	want := anchor
	for _, p := range pets {
		want = refConvolve(want, p, DefaultMaxBins)
	}

	s := &Scratch{}
	prev := anchor
	for _, p := range pets {
		next := ConvolveInto(s.Get(), prev, p)
		if prev != anchor {
			s.Put(prev)
		}
		prev = next
	}
	if !bitwiseEqual(want, prev) {
		t.Fatalf("chained in-place result diverged:\n got %v\nwant %v", prev, want)
	}
}

// fuzzPMF builds a PMF of width 0.5 from raw fuzzer bytes: raw[0] sets the
// origin, raw[1] the tail mass and each further byte one bin's mass, zero
// bins included; with no further bytes the PMF is all tail. It returns nil
// when the bytes cannot make a valid PMF.
func fuzzPMF(raw []byte) *PMF {
	if len(raw) < 2 {
		return nil
	}
	masses := make([]float64, min(len(raw)-2, 64))
	total := float64(raw[1] % 64)
	for i := range masses {
		masses[i] = float64(raw[2+i])
		total += masses[i]
	}
	if total == 0 {
		return nil
	}
	return New(int(int8(raw[0]))%16, 0.5, masses, float64(raw[1]%64))
}

// FuzzConvolveMatchesReference compares ConvolveMaxInto and
// ConditionMinInto bit for bit against the plain reference on fuzzer-built
// PMFs, caps and cut times.
func FuzzConvolveMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 6, 1, 1}, []byte{4, 0, 4, 2, 1, 1}, uint8(3), int8(2))
	f.Add([]byte{250, 9, 0, 3, 0, 0, 7}, []byte{1, 40, 5}, uint8(0), int8(-3))
	f.Add([]byte{7, 63, 0}, []byte{2, 1, 9, 9, 9, 9, 9, 9}, uint8(40), int8(90))
	f.Add([]byte{3, 5}, []byte{1, 0, 4, 4}, uint8(2), int8(1)) // no bins, all tail
	f.Fuzz(func(t *testing.T, araw, braw []byte, capRaw uint8, cutRaw int8) {
		a, b := fuzzPMF(araw), fuzzPMF(braw)
		if a == nil || b == nil {
			t.Skip()
		}
		maxBins := 1 + int(capRaw)%32
		if got, want := ConvolveMaxInto(nil, a, b, maxBins), refConvolve(a, b, maxBins); !bitwiseEqual(got, want) {
			t.Fatalf("ConvolveMaxInto(%v, %v, %d) = %v, want %v", a, b, maxBins, got, want)
		}
		cut := a.MinTime() + float64(cutRaw)/4
		if got, want := ConditionMinInto(nil, a, cut), refConditionMin(a, cut); !bitwiseEqual(got, want) {
			t.Fatalf("ConditionMinInto(%v, %v) = %v, want %v", a, cut, got, want)
		}
	})
}
