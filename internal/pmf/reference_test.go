package pmf

import "math"

// A plain reference for the kernels in inplace.go and compress.go, written
// for readability rather than speed: no destination reuse, no split loops.
// The property tests and FuzzConvolveMatchesReference compare the kernels
// against it bit for bit. Bitwise equality holds because each reference
// function adds the same products in the same order as its kernel.

// refConvolve is the i×j convolution of a and b keeping at most maxBins
// result bins: the product landing at offset k >= maxBins folds into the
// tail, and any pair involving a tail stays in the tail.
func refConvolve(a, b *PMF, maxBins int) *PMF {
	keep := min(len(a.p)+len(b.p)-1, maxBins)
	out := make([]float64, keep)
	tail := a.tail + b.tail - a.tail*b.tail
	for i, av := range a.p {
		for j, bv := range b.p {
			if k := i + j; k < keep {
				out[k] += av * bv
			} else {
				tail += av * bv
			}
		}
	}
	return &PMF{origin: a.origin + b.origin, width: a.width, p: out, tail: tail}
}

// refConditionMin conditions d on X >= t: it drops every bin before the
// first bin at or after t and renormalizes what is left, tail included.
// Nothing to drop leaves d as it is. Nothing finite left leaves either all
// tail (when d has a tail) or a point mass at t.
func refConditionMin(d *PMF, t float64) *PMF {
	cut := int(math.Ceil(t/d.width - 1e-9)) // first absolute bin kept
	if cut <= d.origin {
		return d.Clone()
	}
	var kept []float64
	total := d.tail
	for i, m := range d.p {
		if d.origin+i >= cut {
			kept = append(kept, m)
			total += m
		}
	}
	switch {
	case len(kept) == 0 && d.tail > 0:
		return &PMF{origin: cut, width: d.width, p: []float64{0}, tail: 1}
	case len(kept) == 0 || total <= massEps:
		return Delta(t, d.width)
	}
	for i := range kept {
		kept[i] /= total
	}
	return &PMF{origin: cut, width: d.width, p: kept, tail: d.tail / total}
}

// refShift translates d by t time units, rounded to whole bins.
func refShift(d *PMF, t float64) *PMF {
	s := d.Clone()
	s.origin += int(math.Round(t / d.width))
	return s
}

// refCompressTail folds into the tail the longest suffix of d's bins whose
// mass, summed from the last bin down, stays at most eps, always keeping the
// first bin, then strips zero bins from both ends of what is left.
func refCompressTail(d *PMF, eps float64) *PMF {
	c := d.Clone()
	if eps <= 0 {
		return c
	}
	cut, mass, folded := len(c.p), 0.0, 0.0
	for cut > 1 {
		mass += c.p[cut-1]
		if mass > eps {
			break
		}
		cut--
		folded = mass
	}
	if cut == len(c.p) {
		return c
	}
	c.p = c.p[:cut]
	c.tail += folded
	for len(c.p) > 1 && c.p[len(c.p)-1] <= 0 {
		c.p = c.p[:len(c.p)-1]
	}
	for len(c.p) > 1 && c.p[0] <= 0 {
		c.p = c.p[1:]
		c.origin++
	}
	return c
}
