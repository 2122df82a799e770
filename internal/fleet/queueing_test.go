package fleet

import (
	"fmt"
	"math"
	"testing"

	"hercules/internal/stats"
	"hercules/internal/workload"
)

// poissonStream draws n Poisson arrivals at rateQPS. With expScale each
// query's SparseScale is Exp(1), so an instance whose service time is
// mean×scale serves exponentially; otherwise every scale is 1
// (deterministic service).
func poissonStream(n int, rateQPS float64, expScale bool, seed int64) []workload.Query {
	rng := stats.NewRand(seed)
	qs := make([]workload.Query, n)
	t := 0.0
	for i := range qs {
		t += rng.ExpFloat64() / rateQPS
		scale := 1.0
		if expScale {
			scale = rng.ExpFloat64()
		}
		qs[i] = workload.Query{ID: int64(i), ArrivalS: t, Size: 1, SparseScale: scale}
	}
	return qs
}

// erlangC is the probability that an arrival waits in an M/M/c queue
// with offered load a = λ/μ < c.
func erlangC(c int, a float64) float64 {
	sum, term := 0.0, 1.0 // term = a^k / k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term * float64(c) / (float64(c) - a)
	return tail / (sum + tail)
}

// mmckBlocking is the blocking probability of an M/M/c/K queue (K
// places in the system) with offered load a = λ/μ.
func mmckBlocking(c, k int, a float64) float64 {
	var norm, pn, term float64 = 0, 0, 1 // term = P(n)/P(0)
	for n := 0; n <= k; n++ {
		norm += term
		pn = term
		if n < c {
			term *= a / float64(n+1)
		} else {
			term *= a / float64(c)
		}
	}
	return pn / norm
}

// meanWait replays queries on one unbounded instance through
// ReplaySlice and returns the mean queueing wait (latency minus the
// query's own service time). Unbatched latencies come back in arrival
// order, so with no drops latency i belongs to query i.
func meanWait(t *testing.T, in *Instance, queries []workload.Query, meanS float64) float64 {
	t.Helper()
	res := ReplaySlice(RoundRobin, []*Instance{in}, queries, 1)
	if res.Dropped != 0 {
		t.Fatalf("an unbounded queue dropped %d queries", res.Dropped)
	}
	sum := 0.0
	for i, lat := range res.LatS {
		sum += lat - meanS*queries[i].SparseScale
	}
	return sum / float64(len(res.LatS))
}

// TestInstanceMatchesQueueingTheory checks one Instance, replayed
// through ReplaySlice, against closed-form queueing results: M/M/c mean
// wait against Erlang C, M/M/c/(c+2) blocking probability, and M/D/1
// mean wait against Pollaczek–Khinchine. Each case replays 400k
// Poisson arrivals and must land within 5% of the formula.
func TestInstanceMatchesQueueingTheory(t *testing.T) {
	const (
		n     = 400_000
		meanS = 0.004
		tol   = 0.05
	)
	svc := func(size int, scale float64) float64 { return meanS * scale }
	check := func(name string, got, want float64) {
		t.Helper()
		if rel := math.Abs(got-want) / want; rel > tol {
			t.Errorf("%s: measured %.6g, theory %.6g (%.1f%% off, tolerance %.0f%%)",
				name, got, want, 100*rel, 100*tol)
		} else {
			t.Logf("%s: measured %.6g, theory %.6g (%.2f%% off)", name, got, want, 100*rel)
		}
	}
	for _, c := range []int{1, 4} {
		for _, rho := range []float64{0.5, 0.8} {
			a := rho * float64(c)
			lambda := a / meanS
			queries := poissonStream(n, lambda, true, int64(100*c)+int64(10*rho))

			// M/M/c: Wq = C(c, a) / (cμ − λ).
			in := NewInstance(0, "T2", "DLRM-RMC1", 1, c, 4096, svc)
			want := erlangC(c, a) / (float64(c)/meanS - lambda)
			check(fmt.Sprintf("M/M/%d wait, rho %.1f", c, rho), meanWait(t, in, queries, meanS), want)

			// M/M/c/(c+2): an arrival finding c+2 in the system is lost.
			in = NewInstance(0, "T2", "DLRM-RMC1", 1, c, 2, svc)
			res := ReplaySlice(RoundRobin, []*Instance{in}, queries, 1)
			check(fmt.Sprintf("M/M/%d/%d blocking, rho %.1f", c, c+2, rho),
				float64(res.Dropped)/float64(n), mmckBlocking(c, c+2, a))
		}
	}
	for _, rho := range []float64{0.5, 0.8} {
		// M/D/1: Wq = ρ s / (2 (1 − ρ)).
		queries := poissonStream(n, rho/meanS, false, int64(1000*rho))
		in := NewInstance(0, "T2", "DLRM-RMC1", 1, 1, 4096, svc)
		check(fmt.Sprintf("M/D/1 wait, rho %.1f", rho), meanWait(t, in, queries, meanS),
			rho*meanS/(2*(1-rho)))
	}
}
