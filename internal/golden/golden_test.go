package golden

import (
	"math"
	"testing"
)

type sample struct {
	N      int
	F      float64
	hidden []uint8
	M      map[string]float64
	P      *sample
	I      any
}

func TestDigestDistinguishesBits(t *testing.T) {
	base := sample{N: 1, F: 0.5, hidden: []uint8{1}, M: map[string]float64{"a": 1, "b": 2}}
	same := sample{N: 1, F: 0.5, hidden: []uint8{1}, M: map[string]float64{"b": 2, "a": 1}}
	if Digest(base) != Digest(same) {
		t.Fatal("equal values (maps built in another order) digest differently")
	}
	for _, other := range []sample{
		{N: 2, F: 0.5, hidden: []uint8{1}, M: base.M},
		{N: 1, F: math.Nextafter(0.5, 1), hidden: []uint8{1}, M: base.M},
		{N: 1, F: 0.5, hidden: []uint8{2}, M: base.M},
		{N: 1, F: 0.5, hidden: []uint8{1}, M: map[string]float64{"a": 1}},
		{N: 1, F: 0.5, hidden: []uint8{1}, M: base.M, P: &sample{}},
		{N: 1, F: 0.5, hidden: []uint8{1}, M: base.M, I: "x"},
	} {
		if Digest(base) == Digest(other) {
			t.Errorf("%+v digests like %+v", other, base)
		}
	}
	if Digest(math.Copysign(0, -1)) == Digest(0.0) {
		t.Error("-0 and +0 digest alike")
	}
	if Digest(true, int8(-1), uint16(3), float32(1.5)) == Digest(false, int8(-1), uint16(3), float32(1.5)) {
		t.Error("bools digest alike")
	}
}

func TestDigestRejectsFuncs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("digesting a func did not panic")
		}
	}()
	Digest(func() {})
}

func TestFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/g.json"
	*update = true
	t.Run("write", func(t *testing.T) {
		f := Open(t, path)
		f.Check(t, "a", Digest(1))
	})
	*update = false
	t.Run("read", func(t *testing.T) {
		f := Open(t, path)
		f.Check(t, "a", Digest(1))
	})
}
