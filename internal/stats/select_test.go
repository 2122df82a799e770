package stats

import (
	"math"
	"sort"
	"testing"
)

// PercentileSelect must return bit-identical values to PercentileSorted
// on a sorted copy — the fleet replay's golden determinism depends on
// the two paths being interchangeable.
func TestPercentileSelectMatchesSorted(t *testing.T) {
	r := NewRand(3)
	points := []float64{0, 1, 42.5, 50, 95, 99, 99.9, 100}
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			if trial%3 == 0 {
				// Duplicate-heavy inputs stress the Hoare partition.
				xs[i] = float64(r.Intn(4))
			} else {
				xs[i] = Lognormal(r, 0, 1)
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range points {
			work := append([]float64(nil), xs...)
			got := PercentileSelect(work, p)
			want := PercentileSorted(sorted, p)
			if got != want {
				t.Fatalf("n=%d p=%v: select %v != sorted %v", n, p, got, want)
			}
		}
	}
	if PercentileSelect(nil, 50) != 0 {
		t.Fatal("empty slice must yield 0")
	}
}

// PercentilesSelect must return, point for point, the bit-identical
// values PercentileSorted reads off a sorted copy — including when
// several points share one lower rank (p99 and p99.9 at small n reuse
// the same selection and interpolation partner).
func TestPercentilesSelectMatchesSorted(t *testing.T) {
	r := NewRand(5)
	pointSets := [][]float64{
		{50, 95, 99},
		{95, 99},
		{0, 100},
		{0, 50, 100},
		{99, 99.9},
		{1, 1, 42.5, 99, 99.9, 100},
	}
	check := func(xs []float64) {
		t.Helper()
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, ps := range pointSets {
			work := append([]float64(nil), xs...)
			out := make([]float64, len(ps))
			PercentilesSelect(work, ps, out)
			for i, p := range ps {
				if want := PercentileSorted(sorted, p); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d points %v: p%v = %v, sorted gives %v", len(xs), ps, p, out[i], want)
				}
			}
		}
	}
	check(nil)
	check([]float64{3})
	check([]float64{2, 1})
	check([]float64{1, 1})
	for trial := 0; trial < 90; trial++ {
		n := 1 + r.Intn(300)
		if trial%10 == 0 {
			n = 2 + r.Intn(8) // small n: p99 and p99.9 share a lower rank
		}
		xs := make([]float64, n)
		for i := range xs {
			if trial%3 == 0 {
				xs[i] = float64(r.Intn(4)) // duplicate-heavy
			} else {
				xs[i] = Lognormal(r, 0, 1)
			}
		}
		check(xs)
	}
}

func TestPercentilesSelectRejectsDescendingPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending points must panic")
		}
	}()
	xs := []float64{5, 4, 3, 2, 1, 0}
	PercentilesSelect(xs, []float64{99, 50}, make([]float64, 2))
}

// BenchmarkPercentilesSelect compares the nested p50/p95/p99 selection
// with three independent PercentileSelect calls on one buffer — the
// interval-tail read of the fleet replay.
func BenchmarkPercentilesSelect(b *testing.B) {
	r := NewRand(9)
	src := make([]float64, 40000)
	for i := range src {
		src[i] = Lognormal(r, 0, 1)
	}
	buf := make([]float64, len(src))
	ps := []float64{50, 95, 99}
	out := make([]float64, len(ps))
	b.Run("nested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			PercentilesSelect(buf, ps, out)
		}
	})
	b.Run("separate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			for j, p := range ps {
				out[j] = PercentileSelect(buf, p)
			}
		}
	})
}
