package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hercules/internal/cluster"
	"hercules/internal/telemetry"
)

// The record→replay tests pin the tentpole claim of the trace-ingestion
// layer: a day recorded as an arrival trace (-record: arrival + offer
// NDJSON at sample 1) and re-ingested through fleet.TraceSource
// reproduces the original DayResult byte for byte — same provisioning,
// same shedding, same routing, same tails — and re-recording the
// replayed day reproduces the trace bytes themselves. Identity is
// pinned at shard caps 1, 4 and 8, sequential and parallel.

// replaySpec is the testEngine spec as a value the replay tests can
// vary (scenario, admission, cache) before construction.
func replaySpec(router string, opts Options) Spec {
	return Spec{Router: router, Policy: "greedy", Models: []string{"DLRM-RMC1"},
		HeadroomR: 0.05, Options: opts}
}

// newReplayEngine builds the test engine from an explicit spec plus
// extra options — testEngine with the spec opened up.
func newReplayEngine(t testing.TB, spec Spec, extra ...Option) *Engine {
	t.Helper()
	opts := append([]Option{
		WithFleet(testFleet()), WithTable(testTable()),
		WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })),
	}, extra...)
	e, err := NewEngine(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// arrivalSink is the -record sink: NDJSON restricted to the replayable
// kinds (arrival + offer).
func arrivalSink(buf *bytes.Buffer) *telemetry.NDJSONWriter {
	return telemetry.NewNDJSONWriter(buf).Restrict(telemetry.KindArrival, telemetry.KindOffer)
}

// recordDay replays ws at full trace sampling and returns the recorded
// arrival trace plus the DayResult it must pin.
func recordDay(t testing.TB, spec Spec, ws []cluster.Workload) ([]byte, DayResult) {
	t.Helper()
	spec.Options.TraceSample = 1
	e := newReplayEngine(t, spec)
	var buf bytes.Buffer
	e.Tracer.AddSink(arrivalSink(&buf))
	res, err := e.RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// replayDay re-ingests a recorded trace, replays it with the same spec,
// and re-records it: returns the re-exported trace and the DayResult.
func replayDay(t *testing.T, spec Spec, rec []byte, stepS float64) ([]byte, DayResult) {
	t.Helper()
	ts, err := ReadTrace(bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	spec.Options.TraceSample = 1
	e := newReplayEngine(t, spec, WithTraceSource(ts))
	var buf bytes.Buffer
	e.Tracer.AddSink(arrivalSink(&buf))
	res, err := e.RunDay(ts.Workloads(stepS, spec.Options.SliceS))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// tinyDay is a day small enough that the greedy provisioner allocates a
// single server every interval: the shard decomposition (n = min(cap,
// pool) = 1) coincides at every shard cap, so ONE committed golden
// arrival trace pins record bytes at shards 1, 4 and 8 simultaneously.
func tinyDay() []cluster.Workload {
	return []cluster.Workload{{Model: "DLRM-RMC1", Trace: stepTrace(50, 100, 150)}}
}

func tinyOpts() Options {
	opts := testOpts()
	opts.SliceS = 2
	return opts
}

// TestGoldenArrivalTrace: the recorded arrival trace of tinyDay must be
// byte-identical across shard caps 1/4/8 (sequential and parallel) and
// match the committed golden — and re-ingesting the golden must
// re-record it byte for byte. Regenerate with REGEN_GOLDEN_ARRIVALS=1.
func TestGoldenArrivalTrace(t *testing.T) {
	record := func(shards int, sequential bool) []byte {
		opts := tinyOpts()
		opts.Shards = shards
		opts.Sequential = sequential
		rec, _ := recordDay(t, replaySpec(PowerOfTwo, opts), tinyDay())
		return rec
	}
	const golden = "testdata/golden_arrivals.ndjson"
	if os.Getenv("REGEN_GOLDEN_ARRIVALS") != "" {
		got := record(1, true)
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated golden arrivals: %d bytes", len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name       string
		shards     int
		sequential bool
	}{
		{"seq-1", 1, true},
		{"seq-4", 4, true},
		{"par-4", 4, false},
		{"par-8", 8, false},
	} {
		if got := record(cfg.shards, cfg.sequential); !bytes.Equal(got, want) {
			t.Errorf("%s: recorded trace diverged from golden (%d vs %d bytes)",
				cfg.name, len(got), len(want))
		}
	}
	// Round trip: re-ingesting the golden re-records it byte for byte.
	reRec, _ := replayDay(t, replaySpec(PowerOfTwo, tinyOpts()), want, 600)
	if !bytes.Equal(reRec, want) {
		t.Errorf("replayed golden re-recorded %d bytes, want %d", len(reRec), len(want))
	}
}

// TestRecordReplayRoundTrip: for every variant — baseline, a spike+shed
// scenario (the spike baked into the recorded arrivals, the shed
// re-applied as live policy), admission shedding under overload, and a
// cache tier under a flush storm — record → replay must reproduce the
// DayResult exactly (DeepEqual and JSON bytes) and re-record the trace
// byte-identically, at shard caps 1, 4 and 8.
func TestRecordReplayRoundTrip(t *testing.T) {
	// Events span the tiny days' 30-minute horizon (hours 0–0.5).
	const stormScenario = `{"name":"storm","events":[
		{"kind":"spike","start_h":0.15,"end_h":0.5,"factor":1.8},
		{"kind":"shed","start_h":0.3,"end_h":0.5,"factor":0.25}]}`
	const flushScenario = `{"name":"flushstorm","events":[
		{"kind":"flush","start_h":0.15,"end_h":0.5,"frac":0.9}]}`
	variants := []struct {
		name string
		prep func(*Spec)
		ws   []cluster.Workload
	}{
		{"baseline", func(*Spec) {}, goldenTraceWorkloads()},
		{"scenario", func(s *Spec) { s.Scenario = stormScenario }, goldenTraceWorkloads()},
		{"admission", func(s *Spec) { s.Admission = "deadline" },
			[]cluster.Workload{{Model: "DLRM-RMC1", Trace: stepTrace(200, 1200, 1200)}}},
		{"cache-flush", func(s *Spec) {
			s.Cache = CacheSpec{HitRate: 0.8}
			s.Scenario = flushScenario
		}, goldenTraceWorkloads()},
	}
	for _, v := range variants {
		for _, shards := range []int{1, 4, 8} {
			opts := testOpts()
			opts.Shards = shards
			spec := replaySpec(PowerOfTwo, opts)
			v.prep(&spec)
			rec, recRes := recordDay(t, spec, v.ws)
			reRec, repRes := replayDay(t, spec, rec, 600)
			if !reflect.DeepEqual(recRes, repRes) {
				t.Errorf("%s/shards-%d: replayed DayResult diverged", v.name, shards)
				continue
			}
			a, _ := json.Marshal(recRes)
			b, _ := json.Marshal(repRes)
			if !bytes.Equal(a, b) {
				t.Errorf("%s/shards-%d: DayResult JSON diverged", v.name, shards)
			}
			if !bytes.Equal(rec, reRec) {
				t.Errorf("%s/shards-%d: re-recorded trace diverged (%d vs %d bytes)",
					v.name, shards, len(reRec), len(rec))
			}
		}
	}
	// Sanity: the variants exercised what they claim to.
	opts := testOpts()
	spec := replaySpec(PowerOfTwo, opts)
	spec.Admission = "deadline"
	_, res := recordDay(t, spec,
		[]cluster.Workload{{Model: "DLRM-RMC1", Trace: stepTrace(200, 1200, 1200)}})
	if res.TotalShed == 0 {
		t.Error("admission variant shed nothing — overload day too light to exercise the policy")
	}
	spec = replaySpec(PowerOfTwo, opts)
	spec.Cache = CacheSpec{HitRate: 0.8}
	_, res = recordDay(t, spec, goldenTraceWorkloads())
	if res.TotalCacheHits == 0 {
		t.Error("cache variant recorded no hits")
	}
}

// TestSpecTraceFile: Spec.Trace loads the recorded file through
// LoadTrace, adopts the trace's models when the spec names none, and
// Engine.Workloads() reconstructs the recorded day (offered loads
// verbatim from the offer records).
func TestSpecTraceFile(t *testing.T) {
	rec, recRes := recordDay(t, replaySpec(PowerOfTwo, tinyOpts()), tinyDay())
	path := filepath.Join(t.TempDir(), "day.ndjson")
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts()
	opts.TraceSample = 1
	spec := Spec{Router: PowerOfTwo, Policy: "greedy", HeadroomR: 0.05,
		StepMin: 10, Trace: path, Options: opts}
	e := newReplayEngine(t, spec)
	if e.TraceSrc == nil {
		t.Fatal("Spec.Trace did not install a TraceSource")
	}
	if got := e.Spec.Models; !reflect.DeepEqual(got, []string{"DLRM-RMC1"}) {
		t.Fatalf("trace models not adopted: %v", got)
	}
	var buf bytes.Buffer
	e.Tracer.AddSink(arrivalSink(&buf))
	res, err := e.RunDay(e.Workloads())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, recRes) {
		t.Error("spec-driven replay diverged from the recording run")
	}
	if !bytes.Equal(buf.Bytes(), rec) {
		t.Error("spec-driven replay re-recorded different trace bytes")
	}
	if _, err := NewEngine(Spec{Trace: filepath.Join(t.TempDir(), "absent.ndjson")}); err == nil {
		t.Error("missing trace file must error")
	}
}

// TestTraceSourceValidation: malformed traces error with context —
// never panic, never silently skip — and a full lifecycle trace
// re-ingests (non-arrival kinds skipped by design).
func TestTraceSourceValidation(t *testing.T) {
	arrival := `{"i":0,"k":"arrival","m":"M","q":1,"t":0.5,"v":100,"aux":1}`
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "empty trace"},
		{"not json", "nope\n", "line 1"},
		{"missing field", `{"i":0,"k":"arrival","m":"M"}`, "missing required field"},
		{"unknown kind", `{"i":0,"k":"bogus","m":"M","q":1,"t":0,"v":1,"aux":1}`, "unknown event kind"},
		{"negative interval", `{"i":-1,"k":"arrival","m":"M","q":1,"t":0,"v":1,"aux":1}`, "out of range"},
		{"huge interval", `{"i":999999999,"k":"arrival","m":"M","q":1,"t":0,"v":1,"aux":1}`, "out of range"},
		{"empty model", `{"i":0,"k":"arrival","m":"","q":1,"t":0,"v":1,"aux":1}`, "empty model"},
		{"zero id", `{"i":0,"k":"arrival","m":"M","q":0,"t":0,"v":1,"aux":1}`, "must be >= 1"},
		{"negative time", `{"i":0,"k":"arrival","m":"M","q":1,"t":-1,"v":1,"aux":1}`, "finite and >= 0"},
		{"nan size", `{"i":0,"k":"arrival","m":"M","q":1,"t":0,"v":1e999,"aux":1}`, "line 1"},
		{"fractional size", `{"i":0,"k":"arrival","m":"M","q":1,"t":0,"v":1.5,"aux":1}`, "integer"},
		{"zero scale", `{"i":0,"k":"arrival","m":"M","q":1,"t":0,"v":1,"aux":0}`, "sparse scale"},
		{"bad offer qps", `{"i":0,"k":"offer","m":"M","q":-1,"t":0,"v":-3,"aux":8}`, "offer qps"},
		{"bad offer slice", `{"i":0,"k":"offer","m":"M","q":-1,"t":0,"v":10,"aux":0}`, "offer slice"},
		{"duplicate offer", `{"i":0,"k":"offer","m":"M","q":-1,"t":0,"v":10,"aux":8}` + "\n" +
			`{"i":0,"k":"offer","m":"M","q":-1,"t":0,"v":11,"aux":8}`, "duplicate offer"},
		{"duplicate id", arrival + "\n" + arrival, "duplicate query id"},
		{"out of order", `{"i":0,"k":"arrival","m":"M","q":1,"t":0.9,"v":100,"aux":1}` + "\n" +
			`{"i":0,"k":"arrival","m":"M","q":2,"t":0.1,"v":100,"aux":1}`, "out-of-order"},
	}
	for _, c := range cases {
		_, err := ReadTrace(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: want error containing %q, got nil", c.name, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}

	// A full lifecycle trace (routes, completions, hits) re-ingests:
	// only arrivals and offers carry replay state.
	full := arrival + "\n" +
		`{"i":0,"k":"route","m":"M","q":1,"t":0.5,"inst":3,"cand":[1,3],"n":2}` + "\n" +
		`{"i":0,"k":"complete","m":"M","q":1,"t":0.51,"inst":3,"v":0.01}` + "\n" +
		`{"i":0,"k":"hit","m":"M","q":2,"t":0.6,"v":0.0003}` + "\n" +
		`{"i":0,"k":"offer","m":"M","q":-1,"t":0,"v":25,"aux":4}`
	ts, err := ReadTrace(strings.NewReader(full))
	if err != nil {
		t.Fatalf("full lifecycle trace rejected: %v", err)
	}
	if got := ts.Models(); !reflect.DeepEqual(got, []string{"M"}) {
		t.Errorf("models = %v", got)
	}
	if n := len(ts.Queries(0, "M")); n != 1 {
		t.Errorf("arrivals = %d, want 1 (lifecycle events must be skipped)", n)
	}
	if got := ts.Slice(0); got != 4 {
		t.Errorf("recorded slice = %g, want 4", got)
	}
	ws := ts.Workloads(600, 8)
	if len(ws) != 1 || ws[0].Trace.LoadsQPS[0] != 25 {
		t.Errorf("offer load not adopted: %+v", ws)
	}

	// Arrival ordering is canonical (by ID), not file order: shuffled
	// lines parse to the same source.
	shuffled := `{"i":0,"k":"arrival","m":"M","q":2,"t":0.6,"v":50,"aux":1}` + "\n" +
		`{"i":0,"k":"arrival","m":"M","q":1,"t":0.5,"v":100,"aux":1}`
	ts, err = ReadTrace(strings.NewReader(shuffled))
	if err != nil {
		t.Fatal(err)
	}
	qs := ts.Queries(0, "M")
	if len(qs) != 2 || qs[0].ID != 1 || qs[1].ID != 2 {
		t.Errorf("arrivals not canonically ordered: %+v", qs)
	}

	// A trace without offers falls back to arrivals ÷ slice for loads.
	ws = ts.Workloads(600, 8)
	if got := ws[0].Trace.LoadsQPS[0]; got != 2.0/8 {
		t.Errorf("fallback load = %g, want %g", got, 2.0/8)
	}
}
