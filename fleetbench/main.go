// Command fleetbench is the repository's benchmark. It replays one named
// workload through the public fleet API for a fixed host time, checks
// every replayed day, and prints its metrics by name with their units.
// The untraced run (--trace 0) gives the end-to-end metrics; the traced
// run (--trace 1) gives the per-layer metrics, timed from outside around
// calls into each layer. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with
//
//	bash fleetbench/run.sh --workload diurnal --seed 42 --seconds 10 --trace 0
//
// NOTES.md says why each workload exists and what the outside-in layer
// timings cannot see.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"hercules/internal/experiments"
	"hercules/internal/fleet"
	"hercules/internal/stats"
)

// setupReps is how many times a run sets up from scratch; setup_s and
// the setup layer metrics are medians over the repetitions.
const setupReps = 3

// minDays is the fewest timed days of each kind a run replays, however
// short --seconds is.
const minDays = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to replay: diurnal, replay-batched or regions-blackout")
	seed := flag.Int64("seed", experiments.Seed, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds of timed replay")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics; 0: end-to-end metrics")
	outDir := flag.String("out-dir", filepath.Join(".bench_build", "fleetbench"), "directory for the traced run's span file")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, outDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	env := environment()
	fmt.Printf("env nproc=%v gomaxprocs=%v go=%v cpu=%q engine_workers=%v shards=%d workload=%s seed=%d trace=%d\n",
		env["nproc"], env["gomaxprocs"], env["go"], env["cpu"], env["engine_workers"], shards, name, seed, trace)

	b := &bench{w: w, seed: seed}
	if trace == 1 {
		b.tr = &spans{t0: time.Now()}
	}
	// One set-up serves the timed days; the process's peak RSS is read
	// after them, before the remaining set-up repetitions run for the
	// set-up medians (each keeps its table's service grids alive).
	if err := b.setup(1); err != nil {
		return err
	}
	b.checkDeterminism()
	// Return set-up's garbage to the OS now, so the runtime's background
	// scavenger does not compete with the timed days for the CPUs.
	debug.FreeOSMemory()

	res := result{Metrics: map[string]metric{}}
	if trace == 0 {
		if err := b.endToEnd(seconds, res.Metrics); err != nil {
			return err
		}
	} else {
		if err := b.perLayer(seconds, res.Metrics); err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := b.tr.write(path, env); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(b.tr.list), path)
	}
	b.checkReferenceDay()
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// environment describes the host a run measured on.
func environment() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpu,
		"engine_workers": min(runtime.NumCPU(), 16),
		"shards":         shards,
	}
}

// bench is one run's state: the workload's fixture, the warm-up day
// every other day must reproduce, and the operation counts.
type bench struct {
	w    *workloadDef
	seed int64
	tr   *spans // nil in the untraced run

	fx      *fixture
	warm    fleet.DayResult
	warmRef []byte

	setupS, calibrateS, recordS, ingestS, coldDayS []float64
	traceQueries                                   int

	attempted, failed int
	clock             stepClock
}

// op counts one checked operation.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "fleetbench: %s %s failed: %v\n", b.w.name, what, err)
		return false
	}
	return true
}

// setup sets the workload up from scratch reps times: calibration,
// trace record and ingest, engine build, and one untimed warm-up day
// that fills the fresh table's service-time grids. Every warm-up day
// must equal the first.
func (b *bench) setup(reps int) error {
	for rep := 0; rep < reps; rep++ {
		runtime.GC() // each repetition starts from a collected heap
		root := b.tr.open("setup", 0)
		t0 := time.Now()
		table, err := calibrate()
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		t1 := time.Now()
		b.tr.add("profiler.calibrate", root, t0, t1)
		b.calibrateS = append(b.calibrateS, t1.Sub(t0).Seconds())
		fx := &fixture{w: b.w, seed: b.seed, table: table}
		if b.w.recorded {
			raw, err := fx.record()
			if err != nil {
				return err
			}
			t2 := time.Now()
			b.tr.add("fleet.trace_record", root, t1, t2)
			if fx.trace, err = fleet.ReadTrace(bytes.NewReader(raw)); err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
			t3 := time.Now()
			b.tr.add("fleet.trace_ingest", root, t2, t3)
			b.recordS = append(b.recordS, t2.Sub(t1).Seconds())
			b.ingestS = append(b.ingestS, t3.Sub(t2).Seconds())
			b.traceQueries = bytes.Count(raw, []byte(`"k":"arrival"`))
		}
		t4 := time.Now()
		r, err := fx.build(variant{})
		if err != nil {
			return fmt.Errorf("build engine: %w", err)
		}
		t5 := time.Now()
		b.tr.add("fleet.engine_build", root, t4, t5)
		d, err := r.run()
		t6 := time.Now()
		b.tr.add("warmup_day", root, t5, t6)
		b.coldDayS = append(b.coldDayS, t6.Sub(t5).Seconds())
		b.setupS = append(b.setupS, t6.Sub(t0).Seconds())
		b.tr.close(root)
		ref, err := checkDay(d, err, b.warmRef)
		if !b.op("warm-up day", err) {
			continue
		}
		if b.warmRef == nil {
			b.warm, b.warmRef, b.fx = d, ref, fx
		}
	}
	if b.warmRef == nil {
		return fmt.Errorf("no warm-up day succeeded")
	}
	return nil
}

// checkDeterminism replays the day twice more in set-up: once without
// the engine's worker pool, and, for a workload with its own tracer,
// once without it. Both must reproduce the warm-up day byte for byte.
func (b *bench) checkDeterminism() {
	type check struct {
		what string
		v    variant
	}
	checks := []check{{"sequential day", variant{sequential: true}}}
	if b.w.recorded {
		checks = append(checks, check{"untraced day", variant{noWorkloadTrace: true}})
	}
	for _, c := range checks {
		id := b.tr.open("check."+strings.ReplaceAll(c.what, " ", "_"), 0)
		r, err := b.fx.build(c.v)
		if err == nil {
			var d fleet.DayResult
			d, err = r.run()
			_, err = checkDay(d, err, b.warmRef)
		}
		b.tr.close(id)
		b.op(c.what, err)
	}
}

// dayRun is one timed day's host measurements.
type dayRun struct {
	buildS, dayS float64
	allocB       uint64
	steps        []float64
	events       uint64
	ok           bool
}

// day builds a fresh engine and replays one checked day, timing the
// build and the RunDay apart.
func (b *bench) day(v variant, label string) dayRun {
	// Collect the previous day's garbage first, so no day pays for
	// another's and the heap peak each day reaches is the same.
	runtime.GC()
	root := b.tr.open(label, 0)
	defer b.tr.close(root)
	v.observer = &b.clock
	t0 := time.Now()
	r, err := b.fx.build(v)
	t1 := time.Now()
	b.tr.add("fleet.engine_build", root, t0, t1)
	if err != nil {
		b.op(label, err)
		return dayRun{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	runDay := b.tr.open("fleet.run_day", root)
	b.clock.begin(len(regionDays(b.warm)[0].Steps), b.tr, runDay)
	t2 := time.Now()
	d, err := r.run()
	dayS := time.Since(t2).Seconds()
	b.tr.close(runDay)
	runtime.ReadMemStats(&ms)
	_, err = checkDay(d, err, b.warmRef)
	if !b.op(label, err) {
		return dayRun{}
	}
	dr := dayRun{buildS: t1.Sub(t0).Seconds(), dayS: dayS, allocB: ms.TotalAlloc - alloc0, steps: b.clock.steps(), ok: true}
	if r.events != nil {
		dr.events = r.events.Total
	}
	return dr
}

// endToEnd replays timed days for the given host seconds and reports
// the end-to-end metrics.
func (b *bench) endToEnd(seconds float64, m map[string]metric) error {
	var days []dayRun
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minDays || time.Now().Before(deadline); n++ {
		if d := b.day(variant{}, "day"); d.ok {
			days = append(days, d)
		}
	}
	if len(days) == 0 {
		return fmt.Errorf("every timed day failed")
	}
	var dayS, allocMB []float64
	var totalS float64
	perStep := make([][]float64, len(days[0].steps))
	for _, d := range days {
		dayS = append(dayS, d.dayS)
		allocMB = append(allocMB, float64(d.allocB)/(1<<20))
		totalS += d.dayS
		for i, s := range d.steps {
			perStep[i] = append(perStep[i], s)
		}
	}
	var peak float64
	for _, s := range perStep {
		peak = max(peak, median(s))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	if err := b.setup(setupReps - 1); err != nil {
		return err
	}
	sim := simMetrics(b.warm, b.fx)
	m["setup_s"] = metric{median(b.setupS), "s"}
	m["day_s"] = metric{median(dayS), "s"}
	m["sim_qps"] = metric{float64(b.warm.TotalQueries) * float64(len(days)) / totalS, "1/s"}
	m["peak_step_ms"] = metric{peak * 1e3, "ms"}
	m["alloc_mb_per_day"] = metric{median(allocMB), "MB"}
	m["max_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
	m["sla_met_pct"] = metric{sim.slaMetPct, "%"}
	m["served_pct"] = metric{100 * (1 - b.warm.DropFrac), "%"}
	m["p99_ms"] = metric{b.warm.MeanP99MS, "ms"}
	m["servers_mean"] = metric{sim.serversMean, "count"}
	m["provisioned_kwh"] = metric{b.warm.ProvisionedEnergyKJ / 3600, "kWh"}
	fmt.Printf("%s seed %d: %d timed days, day_s median %.4f, setup_s median of %d %.3f\n",
		b.w.name, b.seed, len(days), median(dayS), len(b.setupS), median(b.setupS))
	return nil
}

type simDay struct {
	slaMetPct, serversMean float64
}

// simMetrics derives two simulated day-level metrics: the share of the
// day's region-minutes within SLA, and the mean active fleet size
// (summed over regions) per interval.
func simMetrics(d fleet.DayResult, fx *fixture) simDay {
	stepMin := fx.w.spec(fx.seed).StepMin
	if stepMin <= 0 {
		stepMin = fleet.DefaultSpec().StepMin
	}
	var minutes, servers float64
	steps := 0
	for _, r := range regionDays(d) {
		minutes += float64(len(r.Steps)) * stepMin
		steps = max(steps, len(r.Steps))
		for _, s := range r.Steps {
			servers += float64(s.ActiveServers)
		}
	}
	return simDay{
		slaMetPct:   100 * (1 - d.SLAViolationMin/minutes),
		serversMean: servers / float64(steps),
	}
}

// perLayer alternates untraced and traced days for the given host
// seconds, then runs the layer micro-replays, and reports the per-layer
// metrics and the "where the day goes" table.
func (b *bench) perLayer(seconds float64, m map[string]metric) error {
	sink := &probe{latMS: map[latKey][]float64{}}
	var plain, traced []dayRun
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minDays || time.Now().Before(deadline); n++ {
		if d := b.day(variant{}, "day"); d.ok {
			plain = append(plain, d)
		}
		sink.keep = len(traced) == 0
		if d := b.day(variant{probe: sink}, "traced_day"); d.ok {
			traced = append(traced, d)
		}
	}
	sink.keep = false
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("every timed day of one kind failed")
	}
	if err := b.setup(setupReps - 1); err != nil {
		return err
	}
	dayS := median(pick(plain, func(d dayRun) float64 { return d.dayS }))
	tracedS := median(pick(traced, func(d dayRun) float64 { return d.dayS }))

	// The micro-replays run on a fresh engine's parts and the warm-up
	// day's interval stream.
	r, err := b.fx.build(variant{})
	if err != nil {
		return fmt.Errorf("build engine for the layer micro-replays: %w", err)
	}
	days := regionDays(b.warm)
	id := b.tr.open("layers.route_arrive_generate_provision", 0)
	ld, err := measureLayers(r.parts, days, b.seed)
	b.tr.close(id)
	if err != nil {
		return fmt.Errorf("layer micro-replay: %w", err)
	}
	id = b.tr.open("layers.stats_select", 0)
	selElems, selS := measureSelect(r.parts, days, sink.latMS)
	b.tr.close(id)
	id = b.tr.open("layers.telemetry_ingest", 0)
	ingestNS := measureIngest(sink.events, b.seed)
	b.tr.close(id)
	id = b.tr.open("layers.observer", 0)
	obsUS := measureObserver(days)
	b.tr.close(id)
	id = b.tr.open("layers.merge", 0)
	mergeUS := measureMerge(b.warm)
	b.tr.close(id)

	var events uint64
	for _, d := range plain {
		events += d.events
	}
	eventsPerDay := float64(events) / float64(len(plain))
	intervals := 0
	reprov := 0
	for _, d := range days {
		intervals += len(d.Steps)
		reprov += d.Reprovisions
	}
	observers := 0.0
	if b.w.recorded {
		observers = 1 // the metrics observer replay-batched attaches
	}
	picks := b.warm.TotalQueries - b.warm.TotalCacheHits
	nsPer := func(s float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return s * 1e9 / float64(n)
	}
	pickNS, arriveNS := nsPer(ld.pickS, ld.picks), nsPer(ld.arriveS, ld.picks)
	stepUS := nsPer(ld.stepS, ld.steps) / 1e3
	genNS := nsPer(ld.genS, ld.genQueries)
	busy := []struct {
		layer string
		s     float64
	}{
		{"workload (generation)", ld.genS},
		{"fleet routing", pickNS * float64(picks) / 1e9},
		{"fleet instance", arriveNS * float64(picks) / 1e9},
		{"stats tails", selS},
		{"control plane", stepUS * float64(reprov) / 1e6},
		{"telemetry + observers", (ingestNS*eventsPerDay + obsUS*1e3*float64(intervals)*observers) / 1e9},
		{"region merge", mergeUS / 1e6},
	}
	var attributed float64
	fmt.Printf("where the day goes: %s seed %d, untraced day_s %.4f (median of %d)\n", b.w.name, b.seed, dayS, len(plain))
	fmt.Printf("  %-24s %10s %8s\n", "layer", "busy_ms", "of_day")
	for _, l := range busy {
		attributed += l.s
		fmt.Printf("  %-24s %10.2f %7.1f%%\n", l.layer, l.s*1e3, 100*l.s/dayS)
	}
	fmt.Printf("  %-24s %10.2f %7.1f%%\n", "attributed", attributed*1e3, 100*attributed/dayS)

	cold := median(b.coldDayS) - dayS
	m["profiler.calibrate_s"] = metric{median(b.calibrateS), "s"}
	m["sim.grid_fill_s"] = metric{cold, "s"}
	m["fleet.trace_record_s"] = metric{median(b.recordS), "s"}
	m["fleet.trace_ingest_s"] = metric{median(b.ingestS), "s"}
	m["fleet.trace_ingest_ns_per_query"] = metric{nsPer(median(b.ingestS), b.traceQueries), "ns/query"}
	m["fleet.engine_build_ms"] = metric{1e3 * median(pick(plain, func(d dayRun) float64 { return d.buildS })), "ms"}
	m["workload.gen_queries"] = metric{float64(ld.genQueries), "count"}
	m["workload.gen_ns_per_query"] = metric{genNS, "ns/query"}
	m["fleet.route.picks"] = metric{float64(picks), "count"}
	m["fleet.route.cands_mean"] = metric{ratio(sink.candSum, sink.routes), "count"}
	m["fleet.route.ns_per_pick"] = metric{pickNS, "ns/pick"}
	m["fleet.instance.ns_per_arrive"] = metric{arriveNS, "ns/arrive"}
	m["fleet.instance.drops"] = metric{float64(b.warm.TotalDrops), "count"}
	m["fleet.instance.wait_ms_p50"] = metric{stats.PercentileSelect(sink.waitsMS, 50), "ms"}
	m["fleet.instance.wait_ms_p99"] = metric{stats.PercentileSelect(sink.waitsMS, 99), "ms"}
	m["fleet.instance.batch_mean"] = metric{ratio(sink.batchSum, sink.starts), "queries/batch"}
	m["stats.select_ns_per_elem"] = metric{nsPer(selS, selElems), "ns/elem"}
	m["cluster.step_us"] = metric{stepUS, "us"}
	m["fleet.reprovisions"] = metric{float64(b.warm.Reprovisions), "count"}
	m["fleet.early_reprovisions"] = metric{float64(b.warm.EarlyReprovisions), "count"}
	m["fleet.boosted_intervals"] = metric{float64(b.warm.BoostedIntervals), "count"}
	m["fleet.autoscale_events"] = metric{float64(b.warm.AutoscaleEvents), "count"}
	m["fleet.geo.spill_served"] = metric{float64(b.warm.SpillInServed), "count"}
	m["fleet.geo.spill_dropped"] = metric{float64(b.warm.SpillInDropped), "count"}
	m["telemetry.events"] = metric{eventsPerDay, "count"}
	m["telemetry.ingest_ns_per_event"] = metric{ingestNS, "ns/event"}
	m["telemetry.observer_us_per_interval"] = metric{obsUS, "us/interval"}
	m["fleet.merge_us"] = metric{mergeUS, "us"}
	m["day.attributed_frac"] = metric{attributed / dayS, "frac"}
	m["bench.trace_overhead_frac"] = metric{tracedS/dayS - 1, "frac"}
	m["day.sla_violation_min"] = metric{b.warm.SLAViolationMin, "min"}
	m["day.drop_pct"] = metric{100 * b.warm.DropFrac, "%"}
	return nil
}

func pick(ds []dayRun, f func(dayRun) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the interpolated median of xs (0 for none), leaving
// xs as it was.
func median(xs []float64) float64 {
	return stats.PercentileSelect(append([]float64(nil), xs...), 50)
}
