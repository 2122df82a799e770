package fleet

import (
	"testing"

	"hercules/internal/stats"
)

// The replay hot path — route decision plus queue admission — must not
// allocate: instance state lives in preallocated index-based float64
// heaps (no container/heap interface boxing) and the per-pair
// service-time samplers are resolved before the loop. At ~1M routed
// queries per simulated day, even one allocation per decision puts the
// garbage collector back on the critical path.

func TestRouterPickZeroAlloc(t *testing.T) {
	for _, kind := range AllRouters {
		insts := constInstances(8, "T2", 0.010, 100, 32)
		for _, in := range insts {
			in.Reset()
			in.Arrive(0, 100, 1) // outstanding work so state-aware routers scan heaps
		}
		router, err := NewRouter(kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(7)
		now := 0.0
		avg := testing.AllocsPerRun(200, func() {
			router.Pick(insts, now, rng)
			now += 1e-4
		})
		if avg != 0 {
			t.Errorf("%s: %.2f allocs per route decision, want 0", kind, avg)
		}
	}
}

// TestBatchedArriveZeroAlloc extends the zero-alloc guarantee to the
// dynamic-batching path: batch formation, window-expiry flushes and
// full-batch dispatches all run on buffers preallocated by
// EnableBatching and the shard's reusable completions scratch.
func TestBatchedArriveZeroAlloc(t *testing.T) {
	const maxBatch = 8
	eff := make([]float64, maxBatch+1)
	for i := range eff {
		eff[i] = 1 - 0.04*float64(i)
	}
	for _, kind := range AllRouters {
		insts := constInstances(4, "T2", 0.010, 100, 32)
		for _, in := range insts {
			in.EnableBatching(maxBatch, 0.002, eff)
			in.Reset()
		}
		router, err := NewRouter(kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(13)
		out := make([]Completion, 0, 2*maxBatch)
		now := 0.0
		id := int64(0)
		avg := testing.AllocsPerRun(500, func() {
			pick := router.Pick(insts, now, rng)
			id++
			out, _ = insts[pick].ArriveBatched(id, now, 100, 1, out[:0])
			now += 1e-3
		})
		if avg != 0 {
			t.Errorf("%s: %.2f allocs per batched admission, want 0", kind, avg)
		}
	}
}

func TestRouteAndArriveZeroAlloc(t *testing.T) {
	for _, kind := range AllRouters {
		insts := constInstances(4, "T2", 0.010, 100, 32)
		router, err := NewRouter(kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(11)
		now := 0.0
		for _, in := range insts {
			in.Reset()
		}
		avg := testing.AllocsPerRun(500, func() {
			pick := router.Pick(insts, now, rng)
			insts[pick].Arrive(now, 100, 1)
			now += 2e-3
		})
		if avg != 0 {
			t.Errorf("%s: %.2f allocs per routed admission, want 0", kind, avg)
		}
	}
}

// TestPoolDispatchZeroAlloc: handing a warm interval's tasks to the
// day's worker pool must not allocate — tasks travel as pointers behind
// the task interface, never as per-task closures. The last interval's
// per-model tails phase is re-run for the measurement: it rewrites each
// model's range of the latency buffer from the shard windows, so it is
// idempotent, and it allocates nothing itself.
func TestPoolDispatchZeroAlloc(t *testing.T) {
	opts := testOpts()
	opts.Shards = 4
	e := twoModelEngine(opts)
	if err := e.beginDay(twoModelWorkloads()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.run.steps; i++ {
		e.stepInterval(i, nil)
	}
	scr := &e.scratch
	if scr.work == nil {
		t.Fatal("the parallel replay started no worker pool")
	}
	models := scr.models[:2]
	for _, mw := range models {
		if mw.phase != phaseTails || len(mw.shards) < 2 {
			t.Fatalf("model %s: phase %d with %d shards, want a sharded tails phase",
				mw.name, mw.phase, len(mw.shards))
		}
	}
	p99 := models[0].p99
	avg := testing.AllocsPerRun(100, func() { runPhase(scr, models) })
	e.endDay()
	if avg != 0 {
		t.Errorf("%.2f allocs per pooled phase, want 0", avg)
	}
	if models[0].p99 != p99 {
		t.Errorf("re-running the tails phase moved p99: %v -> %v", p99, models[0].p99)
	}
}
