package fleet

import (
	"reflect"
	"testing"

	"hercules/internal/stats"
	"hercules/internal/workload"
)

// referenceReplaySlice is the standalone single-slice replay loop
// ReplaySlice ran before it became one shard of the engine's own loop:
// route each query with a fresh router, serve it unbatched or through
// the batcher, then drain the forming batches.
func referenceReplaySlice(routerName string, insts []*Instance, queries []workload.Query, seed int64) SliceResult {
	router, err := NewRouter(routerName)
	if err != nil {
		panic(err)
	}
	rng := stats.NewRand(seed)
	var res SliceResult
	var comps []Completion
	for _, in := range insts {
		in.Reset()
	}
	for _, q := range queries {
		if len(insts) == 0 {
			res.Dropped++
			continue
		}
		in := insts[router.Pick(insts, q.ArrivalS, rng)]
		if in.MaxBatch <= 1 {
			done, drop := in.Arrive(q.ArrivalS, q.Size, q.SparseScale)
			if drop {
				res.Dropped++
				continue
			}
			res.Served++
			res.LatS = append(res.LatS, done-q.ArrivalS)
			continue
		}
		var drop bool
		comps, drop = in.ArriveBatched(q.ID, q.ArrivalS, q.Size, q.SparseScale, comps[:0])
		if drop {
			res.Dropped++
		} else {
			res.Served++
		}
		for _, c := range comps {
			res.LatS = append(res.LatS, c.DoneS-c.ArrivalS)
		}
	}
	for _, in := range insts {
		if in.MaxBatch <= 1 {
			continue
		}
		comps = in.FlushPending(comps[:0])
		for _, c := range comps {
			res.LatS = append(res.LatS, c.DoneS-c.ArrivalS)
		}
	}
	return res
}

// mixedPool builds six 4 ms instances (scaled by each query's
// SparseScale) with 8 waiting slots; every other one batches up to 4
// queries with a 3 ms formation window.
func mixedPool() []*Instance {
	eff := []float64{1, 1, 0.8, 0.7, 0.6}
	insts := make([]*Instance, 6)
	for i := range insts {
		insts[i] = NewInstance(i, "T2", "DLRM-RMC1", 250, 1, 8,
			func(size int, scale float64) float64 { return 0.004 * scale })
		if i%2 == 1 {
			insts[i].EnableBatching(4, 0.003, eff)
		}
	}
	return insts
}

// TestReplaySliceMatchesReference: ReplaySlice runs the engine's shard
// loop and must reproduce the standalone reference loop exactly — the
// latency sequence, the served/dropped split and every instance's
// counters and busy time — on a mixed batched/unbatched pool, for every
// router, from light load through overload (drops and end-of-slice
// drains), and on an empty pool.
func TestReplaySliceMatchesReference(t *testing.T) {
	for _, kind := range AllRouters {
		for _, qps := range []float64{500, 3000, 8000} {
			queries := poissonQueries(qps, 2, 17)
			got, want := mixedPool(), mixedPool()
			res := ReplaySlice(kind, got, queries, 23)
			ref := referenceReplaySlice(kind, want, queries, 23)
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s at %.0f QPS: served/dropped %d/%d (%d latencies), reference %d/%d (%d)",
					kind, qps, res.Served, res.Dropped, len(res.LatS), ref.Served, ref.Dropped, len(ref.LatS))
			}
			if qps == 8000 && ref.Dropped == 0 {
				t.Errorf("%s: overload dropped nothing; the case does not exercise drops", kind)
			}
			for i := range got {
				if g, w := got[i].Utilization(2), want[i].Utilization(2); got[i].Served != want[i].Served ||
					got[i].Dropped != want[i].Dropped || g != w {
					t.Errorf("%s at %.0f QPS: instance %d served/dropped/util %d/%d/%v, reference %d/%d/%v",
						kind, qps, i, got[i].Served, got[i].Dropped, g, want[i].Served, want[i].Dropped, w)
				}
			}
		}
		queries := poissonQueries(500, 1, 19)
		if res, ref := ReplaySlice(kind, nil, queries, 3), referenceReplaySlice(kind, nil, queries, 3); !reflect.DeepEqual(res, ref) {
			t.Errorf("%s on an empty pool: %+v, reference %+v", kind, res, ref)
		}
	}
}
