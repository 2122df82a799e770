package stats

// PercentileSelect returns exactly what PercentileSorted would return
// on a sorted copy of xs — same closest-rank linear interpolation —
// but finds the two needed order statistics by in-place quickselect
// instead of a full sort: O(n) expected instead of O(n log n). The
// slice is partially reordered. Reading several points of one buffer,
// use PercentilesSelect, which nests the selections; code that reads
// many points should sort once and use PercentileSorted.
func PercentileSelect(xs []float64, p float64) float64 {
	var out [1]float64
	PercentilesSelect(xs, []float64{p}, out[:])
	return out[0]
}

// PercentilesSelect writes PercentileSelect(xs, ps[i]) to out[i] for
// every point of ps, which must ascend. Each rank is quickselected only
// in the suffix the previous selection left above it, so later points
// search ever fewer elements. The values are exact order statistics,
// bit-identical to PercentileSorted on a sorted copy; xs is partially
// reordered.
func PercentilesSelect(xs, ps, out []float64) {
	n := len(xs)
	// xs[:base] holds order statistics already in place: every element
	// of it is ≤ every element of xs[base:].
	base, prevLo := 0, -1
	vhi, haveHi := 0.0, false
	for i, p := range ps {
		switch n {
		case 0:
			out[i] = 0
			continue
		case 1:
			out[i] = xs[0]
			continue
		}
		rank := p / 100 * float64(n-1)
		if p <= 0 {
			rank = 0
		}
		if p >= 100 {
			rank = float64(n - 1)
		}
		lo := int(rank)
		if lo < prevLo {
			panic("stats: PercentilesSelect points must ascend")
		}
		if lo != prevLo {
			quickSelect(xs[base:], lo-base)
			base, prevLo, haveHi = lo+1, lo, false
		}
		frac := rank - float64(lo)
		if frac == 0 {
			out[i] = xs[lo]
			continue
		}
		if !haveHi {
			// The (lo+1)-th order statistic is the minimum of the right
			// partition quickSelect leaves behind.
			vhi, haveHi = xs[lo+1], true
			for _, x := range xs[lo+2:] {
				if x < vhi {
					vhi = x
				}
			}
		}
		out[i] = xs[lo]*(1-frac) + vhi*frac
	}
}

// quickSelect reorders xs so xs[k] holds its sorted-order value, every
// element before it is ≤ xs[k] and every element after is ≥ xs[k].
// Median-of-three pivoting with an insertion-sort tail keeps the
// expected cost linear and deterministic (no RNG: replays must be
// reproducible).
func quickSelect(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for hi-lo > 12 {
		// Median-of-three pivot, moved to xs[lo].
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Hoare partition.
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if xs[i] >= pivot {
					break
				}
			}
			for {
				j--
				if xs[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	// Insertion-sort the remaining window.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
