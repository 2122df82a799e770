package fleet

import (
	"fmt"
	"testing"
	"time"

	"hercules/internal/stats"
)

// BenchmarkRouterPick times one routing decision for every built-in
// router over pools of 8, 64 and 512 heterogeneous instances, unbatched
// and batching up to 16. The stream is Poisson at 70% of the pool's
// unbatched capacity, so the pool carries steady outstanding work and
// router inspections find completions to pop and batches to launch.
// Each round of up to 1<<16 queries runs twice from empty instances:
// pick then admit, recording the choices; then admit alone on the
// recorded choices. ns/pick is the difference, per query (ns/op counts
// both passes).
func BenchmarkRouterPick(b *testing.B) {
	const round = 1 << 16
	eff := make([]float64, 17)
	for n := 1; n < len(eff); n++ {
		eff[n] = 0.5 + 0.5/float64(n)
	}
	for _, kind := range AllRouters {
		for _, n := range []int{8, 64, 512} {
			for _, maxBatch := range []int{1, 16} {
				b.Run(fmt.Sprintf("%s/n=%d/batch=%d", kind, n, maxBatch), func(b *testing.B) {
					pool := make([]*Instance, n)
					capQPS := 0.0
					for i := range pool {
						svcS := 0.004 * float64(1+i%3)
						pool[i] = NewInstance(i, "T2", "DLRM-RMC1", 2/svcS, 2, 32,
							func(int, float64) float64 { return svcS })
						if maxBatch > 1 {
							pool[i].EnableBatching(maxBatch, 0.002, eff)
						}
						capQPS += pool[i].Weight
					}
					rng := stats.NewRand(int64(n))
					gaps := make([]float64, round)
					for i := range gaps {
						gaps[i] = rng.ExpFloat64() / (0.7 * capQPS)
					}
					router, err := NewRouter(kind)
					if err != nil {
						b.Fatal(err)
					}
					picks := make([]int, round)
					var comps []Completion
					admit := func(in *Instance, id int64, now float64) {
						if in.MaxBatch > 1 {
							comps, _ = in.ArriveBatched(id, now, 1, 1, comps[:0])
						} else {
							in.Arrive(now, 1, 1)
						}
					}
					var both, alone time.Duration
					b.ResetTimer()
					for done := 0; done < b.N; done += round {
						m := min(round, b.N-done)
						for _, in := range pool {
							in.Reset()
						}
						t := time.Now()
						now := 0.0
						for q := 0; q < m; q++ {
							now += gaps[q]
							picks[q] = router.Pick(pool, now, rng)
							admit(pool[picks[q]], int64(q), now)
						}
						both += time.Since(t)
						for _, in := range pool {
							in.Reset()
						}
						t = time.Now()
						now = 0
						for q := 0; q < m; q++ {
							now += gaps[q]
							admit(pool[picks[q]], int64(q), now)
						}
						alone += time.Since(t)
					}
					b.ReportMetric(float64((both-alone).Nanoseconds())/float64(b.N), "ns/pick")
				})
			}
		}
	}
}
