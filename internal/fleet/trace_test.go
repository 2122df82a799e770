package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"hercules/internal/cluster"
	"hercules/internal/profiler"
	"hercules/internal/scenario"
	"hercules/internal/stats"
	"hercules/internal/telemetry"
)

// The tracing tests pin the tentpole claims of the telemetry layer:
// tracing never perturbs the replay (identical DayResult traced vs
// untraced), the emitted trace is a pure function of the spec (byte
// identity across sequential and parallel execution at any shard cap
// whose decomposition coincides), and every traced router makes
// exactly the decisions its untraced Pick would.

// tracedRun replays goldenTraceWorkloads on a testEngine with the given
// shard geometry, 1-in-64 sampling, and an NDJSON sink; it returns the
// trace bytes and the DayResult.
func tracedRun(t *testing.T, shards int, sequential bool) ([]byte, DayResult) {
	t.Helper()
	opts := testOpts()
	opts.Shards = shards
	opts.Sequential = sequential
	opts.TraceSample = 64
	e := testEngine(PowerOfTwo, opts)
	var buf bytes.Buffer
	e.Tracer.AddSink(telemetry.NewNDJSONWriter(&buf))
	res, err := e.RunDay(goldenTraceWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// goldenTraceWorkloads is a deliberately small day: at 200/400/600
// QPS the greedy provisioner never allocates more than 4 T2 servers
// per interval, so Shards=4 and Shards=8 produce identical shard
// decompositions (n = min(shardCap, pool)) — the strongest trace
// byte-identity claim available across shard caps.
func goldenTraceWorkloads() []cluster.Workload {
	return []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(200, 400, 600),
	}}
}

// TestGoldenTraceByteIdentity: the sampled trace must be byte-for-byte
// identical across sequential and parallel replays and across shard
// caps with coinciding decompositions, and must match the committed
// golden — the proof that trace emission is deterministic, not merely
// "deterministic up to goroutine scheduling".
func TestGoldenTraceByteIdentity(t *testing.T) {
	if os.Getenv("REGEN_GOLDEN_TRACE") != "" {
		got, _ := tracedRun(t, 4, true)
		if err := os.WriteFile("testdata/golden_trace.ndjson", got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated golden trace: %d bytes", len(got))
	}
	want, err := os.ReadFile("testdata/golden_trace.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name       string
		shards     int
		sequential bool
	}{
		{"seq-4", 4, true},
		{"par-4", 4, false},
		{"par-8", 8, false},
	} {
		got, _ := tracedRun(t, cfg.shards, cfg.sequential)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: trace diverged from golden (%d vs %d bytes)",
				cfg.name, len(got), len(want))
		}
	}
}

// TestTracingDoesNotPerturbReplay: enabling the tracer — even at full
// sampling — must leave the DayResult bit-identical to the untraced
// replay. Tracing reads the replay; it never participates in it.
func TestTracingDoesNotPerturbReplay(t *testing.T) {
	base := testOpts()
	base.Shards = 4
	untraced, err := testEngine(PowerOfTwo, base).RunDay(goldenTraceWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range []int{1, 16} {
		opts := base
		opts.TraceSample = sample
		e := testEngine(PowerOfTwo, opts)
		sink := &telemetry.CountSink{}
		e.Tracer.AddSink(sink)
		traced, err := e.RunDay(goldenTraceWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traced, untraced) {
			t.Errorf("sample 1/%d: tracing changed the DayResult", sample)
		}
		if sink.Total == 0 {
			t.Errorf("sample 1/%d: no events emitted", sample)
		}
	}
}

// TestTracedBatchedReplayDeterministic extends both claims to the
// dynamic-batching loop: parallel batched trace == sequential batched
// trace, and the traced batched DayResult equals the untraced one.
func TestTracedBatchedReplayDeterministic(t *testing.T) {
	run := func(sequential bool, sample int) ([]byte, DayResult) {
		opts := testOpts()
		opts.Shards = 4
		opts.MaxBatch = 4
		opts.BatchWaitS = 0.004
		opts.Sequential = sequential
		opts.TraceSample = sample
		e := testEngine(WeightedHetero, opts)
		e.Service = constBatchSource{}
		var buf bytes.Buffer
		if e.Tracer != nil {
			e.Tracer.AddSink(telemetry.NewNDJSONWriter(&buf))
		}
		res, err := e.RunDay(goldenTraceWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		if e.Tracer != nil {
			if err := e.Tracer.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes(), res
	}
	seqTrace, seqRes := run(true, 8)
	parTrace, parRes := run(false, 8)
	if !bytes.Equal(seqTrace, parTrace) {
		t.Error("batched parallel trace diverged from sequential")
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Error("batched parallel DayResult diverged from sequential")
	}
	_, untraced := run(false, 0)
	if !reflect.DeepEqual(parRes, untraced) {
		t.Error("tracing changed the batched DayResult")
	}
}

// TestTracedRoutersMatchUntraced: for every registered router,
// PickTraced must make the identical decision sequence Pick makes —
// same picks, same RNG draws, same instance-state evolution — while
// filling in the routing event. Two mirrored simulations with shared
// seeds catch any divergence in draw count or Outstanding() order. The
// batched pool (three channels, MaxBatch 4) makes router inspections
// launch due forming batches, so the mirrored completions pin that
// contract too.
func TestTracedRoutersMatchUntraced(t *testing.T) {
	batchedPool := func() []*Instance {
		insts := make([]*Instance, 5)
		for i := range insts {
			insts[i] = NewInstance(i, "T2", "DLRM-RMC1", float64(60+20*i), 3, 4,
				func(size int, scale float64) float64 { return 0.008 })
			insts[i].EnableBatching(4, 0.002, []float64{1, 1, 0.8, 0.7, 0.6})
		}
		return insts
	}
	pools := []struct {
		name string
		make func() []*Instance
	}{
		{"unbatched", func() []*Instance { return constInstances(5, "T2", 0.008, 100, 16) }},
		{"batched", batchedPool},
	}
	for _, pool := range pools {
		for _, kind := range AllRouters {
			plain, err := NewRouter(kind)
			if err != nil {
				t.Fatal(err)
			}
			tracedR, err := NewRouter(kind)
			if err != nil {
				t.Fatal(err)
			}
			tr, ok := tracedR.(TracedRouter)
			if !ok {
				t.Fatalf("%s does not implement TracedRouter", kind)
			}
			instsA := pool.make()
			instsB := pool.make()
			rngA := stats.NewRand(99)
			rngB := stats.NewRand(99)
			now := 0.0
			var ev telemetry.Event
			var compsA, compsB []Completion
			for i := 0; i < 400; i++ {
				pa := plain.Pick(instsA, now, rngA)
				ev = telemetry.Event{}
				pb := tr.PickTraced(instsB, now, rngB, &ev)
				if pa != pb {
					t.Fatalf("%s/%s: decision %d diverged: Pick=%d PickTraced=%d", pool.name, kind, i, pa, pb)
				}
				if ev.NCand == 0 {
					t.Fatalf("%s/%s: no candidates recorded", pool.name, kind)
				}
				// The chosen instance must be among the recorded candidates
				// (the engine stamps ev.Instance itself after PickTraced).
				found := false
				for c := 0; c < int(ev.NCand) && c < telemetry.MaxCandidates; c++ {
					if int(ev.Cand[c]) == instsB[pb].ID {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s/%s: picked instance %d not among %d recorded candidates",
						pool.name, kind, instsB[pb].ID, ev.NCand)
				}
				if instsA[pa].MaxBatch > 1 {
					compsA, _ = instsA[pa].ArriveBatched(int64(i), now, 100, 1, compsA)
					compsB, _ = instsB[pb].ArriveBatched(int64(i), now, 100, 1, compsB)
				} else {
					instsA[pa].Arrive(now, 100, 1)
					instsB[pb].Arrive(now, 100, 1)
				}
				now += 0.0007
			}
			for i := range instsA {
				compsA = instsA[i].FlushPending(compsA)
				compsB = instsB[i].FlushPending(compsB)
				if instsA[i].Served != instsB[i].Served || instsA[i].Dropped != instsB[i].Dropped {
					t.Fatalf("%s/%s: instance %d state diverged (%d/%d vs %d/%d)", pool.name, kind, i,
						instsA[i].Served, instsA[i].Dropped, instsB[i].Served, instsB[i].Dropped)
				}
			}
			if !reflect.DeepEqual(compsA, compsB) {
				t.Fatalf("%s/%s: completions diverged", pool.name, kind)
			}
		}
	}
}

// TestSketchTailsDeterministicAndClose: the sketch-based tail path
// must stay deterministic across parallel and sequential replays —
// with two models at Shards 4, the pooled per-model tails phase merges
// its sketches concurrently — and its percentiles must track the exact
// path within the sketch's relative-error bound.
func TestSketchTailsDeterministicAndClose(t *testing.T) {
	run := func(sequential, sketch bool) DayResult {
		opts := testOpts()
		opts.Shards = 4
		opts.Sequential = sequential
		opts.SketchTails = sketch
		res, err := twoModelEngine(opts).RunDay(twoModelWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(true, true)
	par := run(false, true)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sketch-tails parallel replay diverged from sequential")
	}
	exact := run(true, false)
	if len(seq.Steps) != len(exact.Steps) {
		t.Fatal("step count diverged")
	}
	// DefaultSketchAlpha is 1% relative error; allow 3% to absorb the
	// rank interpolation difference between PercentileSelect and the
	// sketch's bucket midpoint.
	const tol = 0.03
	for i := range seq.Steps {
		for _, pair := range [][2]float64{
			{seq.Steps[i].P95MS, exact.Steps[i].P95MS},
			{seq.Steps[i].P99MS, exact.Steps[i].P99MS},
		} {
			got, want := pair[0], pair[1]
			if want == 0 {
				continue
			}
			if diff := (got - want) / want; diff > tol || diff < -tol {
				t.Errorf("interval %d: sketch tail %.4f vs exact %.4f (%.2f%% off)",
					i, got, want, diff*100)
			}
		}
	}
	if seq.TotalQueries != exact.TotalQueries || seq.TotalDrops != exact.TotalDrops {
		t.Error("sketch path changed query accounting")
	}
}

// twoModelEngine is testEngine serving DLRM-RMC1 and DLRM-RMC2 from one
// T2 fleet, so per-model phases have more than one task to pool.
func twoModelEngine(opts Options) *Engine {
	tb := testTable()
	tb.Set(profiler.Entry{
		Model: "DLRM-RMC2", Server: "T2",
		QPS: 200, PowerW: 300, QPSPerWatt: 200.0 / 300,
	})
	e, err := NewEngine(Spec{Router: PowerOfTwo, Policy: "greedy",
		Models: []string{"DLRM-RMC1", "DLRM-RMC2"}, HeadroomR: 0.05, Options: opts},
		WithFleet(testFleet()), WithTable(tb),
		WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
	if err != nil {
		panic(err)
	}
	return e
}

// twoModelWorkloads is a two-model day whose surge overloads the fleet
// provisioned for its first interval.
func twoModelWorkloads() []cluster.Workload {
	return []cluster.Workload{
		{Model: "DLRM-RMC1", Trace: stepTrace(300, 1600, 1600, 1600, 900, 600)},
		{Model: "DLRM-RMC2", Trace: stepTrace(200, 1200, 1200, 1200, 700, 400)},
	}
}

// TestTracedShedParallelMatchesSequential: every sampled shed query is
// staged in its model's own buffer while the models' streams are built
// concurrently; the buffers must still reach the trace in model order,
// ahead of the shard events, so the NDJSON bytes of a parallel replay
// equal the sequential ones. Both shedding sources are active — a
// scenario drill on one model and deadline admission on both.
func TestTracedShedParallelMatchesSequential(t *testing.T) {
	ws := twoModelWorkloads()
	sc := scenario.Scenario{Name: "drill", Events: []scenario.Event{
		{Kind: scenario.Shed, StartH: 0, EndH: 0.5, Model: "DLRM-RMC2", Factor: 0.3},
	}}
	run := func(sequential bool) ([]byte, DayResult) {
		opts := testOpts()
		opts.Shards = 4
		opts.Sequential = sequential
		opts.TraceSample = 1
		e := twoModelEngine(opts)
		e.Scaler = nil // keep the surge overloaded, so admission sheds
		e.Admission = NewDeadlineAdmission()
		if err := e.ApplyScenario(sc, ws); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		e.Tracer.AddSink(telemetry.NewNDJSONWriter(&buf))
		res, err := e.RunDay(ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Tracer.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}
	seqTrace, seqRes := run(true)
	parTrace, parRes := run(false)
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Error("parallel DayResult diverged from sequential")
	}
	if !bytes.Equal(seqTrace, parTrace) {
		t.Error("parallel shed trace diverged from sequential")
	}
	if seqRes.TotalShed == 0 {
		t.Fatal("nothing was shed")
	}
	// Within each interval the engine-level stream comes first, model by
	// model: offers and sheds in sorted model order, all ahead of the
	// first query a shard handled.
	lastModel := map[int]string{}
	sharded := map[int]bool{}
	sheds := 0
	for _, raw := range bytes.Split(bytes.TrimSpace(seqTrace), []byte("\n")) {
		var ev struct {
			I int    `json:"i"`
			K string `json:"k"`
			M string `json:"m"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.K {
		case "arrival":
		case "offer", "shed":
			if sharded[ev.I] {
				t.Fatalf("interval %d: %s event after shard events", ev.I, ev.K)
			}
			if ev.M < lastModel[ev.I] {
				t.Fatalf("interval %d: %s of %s after %s", ev.I, ev.K, ev.M, lastModel[ev.I])
			}
			lastModel[ev.I] = ev.M
			if ev.K == "shed" {
				sheds++
			}
		default:
			sharded[ev.I] = true
		}
	}
	if sheds != seqRes.TotalShed {
		t.Errorf("%d shed events traced at 1/1 sampling, want %d", sheds, seqRes.TotalShed)
	}
	// Admission (not only the drill) must have shed: intervals past the
	// drill's half hour shed too.
	late := 0
	for _, st := range seqRes.Steps[3:] {
		late += st.Shed
	}
	if late == 0 {
		t.Error("deadline admission shed nothing after the drill")
	}
}
