package pmf

// Tail-mass-ε support compression. Long streaming trials convolve thousands
// of PETs into machine-queue PCT chains; each convolution widens the support
// until DefaultMaxBins truncates it. CompressTailInPlace trades a bounded,
// one-sided approximation error for a tighter support: it folds the longest
// suffix of high-time bins whose combined mass is at most eps into the tail
// bucket. Because tail mass counts as missing every finite deadline, the
// compressed PMF is conservative — for any t, ProbLE(t) decreases by at
// most eps and never increases — so pruning decisions made on compressed
// PCTs can only get (ε-slightly) more cautious, never optimistic.

// CompressTailInPlace folds the largest suffix of d's finite support with
// total mass <= eps into the tail bucket and returns d. At least one finite
// bin is always kept. For eps <= 0 (or when no suffix qualifies) d is left
// unchanged. It mutates d, so callers compress PMFs they own exclusively
// (machine scratch chains).
//
// Error bound, asserted by property test: Tail() grows by at most eps, and
// for every t, the compressed ProbLE(t) is at most eps below the original
// and never above it.
func (d *PMF) CompressTailInPlace(eps float64) *PMF {
	cut, folded := d.tailCut(eps)
	if cut == len(d.p) {
		return d
	}
	d.p = d.p[:cut]
	d.tail += folded
	d.trim()
	return d
}

// tailCut finds the shortest prefix length to keep so the dropped suffix has
// mass <= eps, keeping at least one bin. It returns the cut index and the
// mass the cut folds into the tail; cut == len(d.p) means nothing to do.
func (d *PMF) tailCut(eps float64) (cut int, folded float64) {
	n := len(d.p)
	if eps <= 0 || n <= 1 {
		return n, 0
	}
	var mass float64
	cut = n
	for i := n - 1; i > 0; i-- {
		mass += d.p[i]
		if mass > eps {
			break
		}
		cut = i
		folded = mass
	}
	return cut, folded
}
