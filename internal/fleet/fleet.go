package fleet

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"hercules/internal/cluster"
	"hercules/internal/grid"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/power"
	"hercules/internal/profiler"
	"hercules/internal/scenario"
	"hercules/internal/stats"
	"hercules/internal/telemetry"
	"hercules/internal/workload"
)

// Options tunes the replay engine. It is embedded in Spec, so the
// field tags define the "options" object of the run-spec JSON.
type Options struct {
	// QueueCap is the bounded per-instance dispatch queue (waiting
	// slots behind the in-service queries).
	QueueCap int `json:"queue_cap"`
	// SliceS is the sampled traffic slice simulated per trace interval.
	SliceS float64 `json:"slice_s"`
	// WindowS is the tail-observation window within a slice (the
	// autoscaler's and the SLA-violation metric's granularity).
	WindowS float64 `json:"window_s"`
	// ReprovisionEvery is the scheduled re-provisioning period in trace
	// intervals (the paper re-provisions at coarse intervals to
	// amortize workload setup).
	ReprovisionEvery int `json:"reprovision_every"`
	// MaxQueriesPerInterval bounds one interval's replayed queries; the
	// slice shrinks when the offered load would exceed it.
	MaxQueriesPerInterval int `json:"max_queries_per_interval"`
	// MaxBatch enables dynamic per-instance batching: each instance
	// coalesces up to MaxBatch queued queries into one dispatch, priced
	// by the service source's batching-efficiency curve (BatchSource).
	// 1 disables batching and preserves the per-query replay bit for
	// bit; values below 1 are treated as 1.
	MaxBatch int `json:"max_batch"`
	// BatchWaitS is the longest a forming batch waits for companions
	// before dispatching anyway — the latency the throughput gain is
	// bought with. Only meaningful when MaxBatch > 1.
	BatchWaitS float64 `json:"batch_wait_s"`
	// Shards caps the per-model shard fan-out (0 = runtime.NumCPU()).
	Shards int `json:"shards,omitempty"`
	// Sequential disables the worker pool (results are identical; the
	// flag exists for debugging and benchmarking the parallel path).
	Sequential bool `json:"sequential,omitempty"`
	// TraceSample enables the deterministically-sampled per-query
	// tracer: N traces 1 in N queries (1 traces every query), 0
	// disables tracing. Sample membership is a seeded hash of each
	// query's (interval, model, index) identity, so parallel and
	// sequential replays of the same spec trace the same queries and
	// emit byte-identical event streams. NewEngine materializes the
	// tracer as Engine.Tracer; attach export sinks there.
	TraceSample int `json:"trace_sample,omitempty"`
	// SketchTails replaces the exact per-window latency buffers with
	// mergeable quantile sketches (stats.Sketch, 1% relative error):
	// constant memory per window regardless of sample count, at the
	// cost of tail values that differ from the exact percentiles by up
	// to the sketch's error bound. Off by default — the golden replays
	// pin the exact path bit for bit.
	SketchTails bool `json:"sketch_tails,omitempty"`
	// Seed drives all replay randomness.
	Seed int64 `json:"seed"`
}

// DefaultOptions returns the tuning used by the experiments: 8-second
// slices observed in 1-second windows, hourly scheduled re-provisioning
// on 15-minute traces.
func DefaultOptions() Options {
	return Options{
		QueueCap:              32,
		SliceS:                8,
		WindowS:               1,
		ReprovisionEvery:      4,
		MaxQueriesPerInterval: 150000,
		MaxBatch:              1,
		BatchWaitS:            0.002,
		Seed:                  42,
	}
}

// Engine replays days of traffic against a provisioned fleet.
// NewEngine assembles one from a serializable Spec; the exported
// fields remain assignable for tests and tools that compose an engine
// by hand.
type Engine struct {
	// Spec is the normalized run description the engine was built from
	// (Workloads synthesizes the day it describes). Hand-assembled
	// engines may leave it zero.
	Spec        Spec
	Fleet       hw.Fleet
	Table       *profiler.Table
	Provisioner *cluster.Provisioner
	// Router is the registered name of the per-query routing policy;
	// RunDay resolves it through the registry, once, and instantiates
	// a fresh Router per replay shard.
	Router  string
	Service ServiceSource
	// Scaler is the online autoscaling policy; nil disables early
	// re-provisioning (scheduled intervals only).
	Scaler Scaler
	// Admission is the SLA-aware load-shedding policy consulted per
	// interval and workload before routing; nil admits everything.
	Admission Admission
	// Scenario is the parsed scenario of the spec; RunDay compiles it
	// into Timeline against the workloads' trace geometry when
	// Timeline is nil and the scenario is active.
	Scenario scenario.Scenario
	// Timeline injects a compiled non-stationary scenario
	// (internal/scenario): per-interval load spikes, query-mix shifts,
	// admission shedding, server kills and derates. nil replays the
	// unperturbed diurnal baseline.
	Timeline *scenario.Timeline
	// Observers receive every interval's finalized stats as the replay
	// produces them, in order — the streaming hook the DayResult
	// aggregation itself is built on.
	Observers []Observer
	// Tracer collects sampled per-query lifecycle events
	// (telemetry.Kind) when non-nil: shard workers stage events in
	// per-shard buffers, the replay goroutine drains them in
	// deterministic shard order after each interval and flushes the
	// tracer's sinks. NewEngine creates one automatically when
	// Options.TraceSample > 0; hand-assembled engines set it directly.
	Tracer *telemetry.Tracer
	// TraceSrc replays a recorded arrival trace instead of generating
	// queries: each interval's stream comes verbatim from the trace
	// (IDs, arrival instants, sizes, sparse scales), offered loads from
	// its offer records, and the scenario's traffic-shaping effects
	// (spikes, mix shifts) are skipped — they are already baked into
	// the recorded arrivals. Shedding, admission, fleet effects and the
	// cache tier re-apply as live policy. NewEngine sets it from
	// Spec.Trace or WithTraceSource.
	TraceSrc *TraceSource
	// Cache models the request cache tier in front of routing (see
	// CacheSpec); the zero value disables it and replays bit-identically
	// to the cache-less engine. NewEngine copies it from Spec.Cache.
	Cache CacheSpec
	// Grid prices the replay's measured energy against a carbon-
	// intensity timeline (grid.Spec); beginDay compiles it against the
	// day's geometry. The zero value disables carbon accounting and
	// replays bit-identically to the grid-less engine. NewEngine copies
	// it from Spec.Grid.
	Grid grid.Spec
	Opts Options

	newRouter func() Router
	models    map[string]*model.Model
	meanSvc   map[pairKey]float64
	batchEff  map[pairKey][]float64
	idleW     map[string]float64
	prevObs   map[string]modelObs
	instSeq   int
	baseOverR float64
	// gridTL is the day's compiled carbon-intensity timeline (nil reads
	// as zero intensity — the no-grid replay); tdpW caches per-type
	// server TDP for the powercap watt→derate conversion.
	gridTL  *grid.Timeline
	tdpW    map[string]float64
	scratch replayScratch
	// run is the in-flight day's cross-interval state (beginDay sets
	// it, endDay clears it); an Engine replays one day at a time.
	run *dayRun

	// cacheActive gates every cache branch for one RunDay; the maps are
	// the tier's per-model state (see cache.go).
	cacheActive   bool
	cacheWarmth   map[string]float64
	cachePrevSize map[string]float64
	cacheHitPrev  map[string]float64
}

// modelObs is the per-model observation admission policies condition
// on: what the previous interval's replayed slice recorded.
type modelObs struct {
	p99MS    float64
	dropFrac float64
}

// replayScratch holds the buffers one RunDay reuses across intervals so
// the replay loop stops allocating after the first interval: the shard
// and per-model task pools, the interval latency buffer each model
// reads its tails in place from, and the window verdicts. An Engine
// must not run concurrent RunDays (it never could — the provisioner and
// autoscaler are also per-engine state).
type replayScratch struct {
	shards   []*shardWork // grown on demand, reused each interval
	used     int
	tasks    []*shardWork
	models   []*modelWork // one per model, grown on demand
	allBuf   []float64
	breached []bool
	// allSk is the reused interval merge target of the SketchTails path.
	allSk stats.Sketch

	// Bounded worker pool for one RunDay: workers drain work and tick
	// wg once per completed task.
	work chan task
	wg   sync.WaitGroup
}

// shard hands out the next pooled shardWork, growing the pool on first
// use of each slot.
func (sc *replayScratch) shard() *shardWork {
	if sc.used == len(sc.shards) {
		sc.shards = append(sc.shards, &shardWork{})
	}
	sw := sc.shards[sc.used]
	sc.used++
	return sw
}

// ApplyScenario compiles the scenario against the workloads' aligned
// trace geometry and the engine's fleet, and installs the resulting
// timeline for the next RunDay.
func (e *Engine) ApplyScenario(sc scenario.Scenario, ws []cluster.Workload) error {
	if len(ws) == 0 {
		return fmt.Errorf("fleet: no workloads to scope the scenario against")
	}
	steps := ws[0].Trace.Steps()
	for _, w := range ws[1:] {
		steps = min(steps, w.Trace.Steps())
	}
	tl, err := scenario.Compile(sc, steps, ws[0].Trace.StepS, e.fleetCounts())
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	e.Timeline = tl
	return nil
}

// IntervalStats records one trace interval of the replay.
type IntervalStats struct {
	Index      int     `json:"index"`
	TimeH      float64 `json:"time_h"`
	OfferedQPS float64 `json:"offered_qps"`
	Queries    int     `json:"queries"`
	Drops      int     `json:"drops"`
	// Shed counts queries rejected at admission by a load-shedding
	// scenario event (never offered to a server, not an SLA breach).
	Shed int `json:"shed,omitempty"`
	// DeadServers is how many fleet servers a scenario failure event
	// holds down during this interval.
	DeadServers int `json:"dead_servers,omitempty"`
	// CacheHits counts queries the cache tier served (at cache latency,
	// never routed); CacheHitRate is hits over admitted queries and
	// CacheWarmth the per-model warmth state after this interval's
	// flush/refill. All zero (and omitted) when the tier is disabled.
	CacheHits    int                `json:"cache_hits,omitempty"`
	CacheHitRate float64            `json:"cache_hit_rate,omitempty"`
	CacheWarmth  map[string]float64 `json:"cache_warmth,omitempty"`
	P50MS        float64            `json:"p50_ms"`
	P95MS        float64            `json:"p95_ms"`
	P99MS        float64            `json:"p99_ms"`
	// ModelP95MS / ModelP99MS are per-model windowless tails.
	ModelP95MS map[string]float64 `json:"model_p95_ms"`
	ModelP99MS map[string]float64 `json:"model_p99_ms"`
	// ViolationMin extrapolates breached observation windows to
	// wall-clock minutes of SLA violation in this interval.
	ViolationMin    float64 `json:"violation_min"`
	WindowsBreached int     `json:"windows_breached"`
	Windows         int     `json:"windows"`
	ActiveServers   int     `json:"active_servers"`
	ProvisionedKW   float64 `json:"provisioned_kw"`
	// EnergyKJ is measured energy (idle + utilization-proportional
	// dynamic power over the interval); ProvisionedEnergyKJ integrates
	// the provisioned budget the cluster layer reports.
	EnergyKJ            float64 `json:"energy_kj"`
	ProvisionedEnergyKJ float64 `json:"provisioned_energy_kj"`
	// GridGPerKWh is the grid carbon intensity this interval's energy
	// was priced at, and CarbonG the resulting emissions in grams of
	// CO2. Both zero (and omitted) when no grid is configured.
	GridGPerKWh float64 `json:"grid_g_per_kwh,omitempty"`
	CarbonG     float64 `json:"carbon_g,omitempty"`
	// PowerCappedTypes counts server types a powercap scenario event
	// holds under a watt budget this interval.
	PowerCappedTypes int  `json:"power_capped_types,omitempty"`
	Reprovisioned    bool `json:"reprovisioned"`
	EarlyReprovision bool `json:"early_reprovision"`
	Boosted          bool `json:"boosted"`
	// SpillInServed / SpillInDropped count the remote-origin queries a
	// geo-router spilled into this region's fleet (served with their
	// inter-region RTT added to latency, or dropped here); SpillOutQPS
	// is the offered load the geo-router sent away to other regions
	// this interval. All zero (and omitted) outside multi-region runs.
	SpillInServed  int     `json:"spill_in_served,omitempty"`
	SpillInDropped int     `json:"spill_in_dropped,omitempty"`
	SpillOutQPS    float64 `json:"spill_out_qps,omitempty"`
}

// DayResult aggregates a full replay: the fold of the per-interval
// Observer stream RunDay also hands to caller-registered observers.
type DayResult struct {
	Router string `json:"router"`
	Policy string `json:"policy"`
	// Scaler and Admission name the run's autoscaling and admission
	// policies (empty when disabled).
	Scaler    string `json:"scaler,omitempty"`
	Admission string `json:"admission,omitempty"`
	// Scenario names the injected scenario timeline ("baseline" when
	// the engine replayed the unperturbed diurnal day).
	Scenario string `json:"scenario"`
	// Region names the regional fleet this result replayed (empty for
	// single-region runs); Geo names the geo-routing policy of the
	// multi-region run it belongs to.
	Region string          `json:"region,omitempty"`
	Geo    string          `json:"geo,omitempty"`
	Steps  []IntervalStats `json:"intervals"`

	TotalQueries int `json:"total_queries"`
	TotalDrops   int `json:"total_drops"`
	TotalShed    int `json:"total_shed,omitempty"`
	// TotalCacheHits and CacheHitRate aggregate the cache tier's serves
	// (zero and omitted when the tier is disabled).
	TotalCacheHits      int     `json:"total_cache_hits,omitempty"`
	CacheHitRate        float64 `json:"cache_hit_rate,omitempty"`
	DropFrac            float64 `json:"drop_frac"`
	SLAViolationMin     float64 `json:"sla_violation_min"`
	MeanP95MS           float64 `json:"mean_p95_ms"`
	MaxP95MS            float64 `json:"max_p95_ms"`
	MeanP99MS           float64 `json:"mean_p99_ms"`
	MaxP99MS            float64 `json:"max_p99_ms"`
	EnergyKJ            float64 `json:"energy_kj"`
	ProvisionedEnergyKJ float64 `json:"provisioned_energy_kj"`
	// TotalCarbonG prices the day's measured energy against the grid
	// carbon-intensity timeline, and CarbonPerQueryG is that total over
	// served queries — gCO2/query next to J/query. Both zero (and
	// omitted) when no grid is configured.
	TotalCarbonG      float64 `json:"total_carbon_g,omitempty"`
	CarbonPerQueryG   float64 `json:"carbon_per_query_g,omitempty"`
	Reprovisions      int     `json:"reprovisions"`
	EarlyReprovisions int     `json:"early_reprovisions"`
	AutoscaleEvents   int     `json:"autoscale_events"`
	// BoostedIntervals counts intervals replayed with autoscaler boost
	// headroom in force — the day-level view of IntervalStats.Boosted
	// (per-interval flags don't survive a cross-engine merge; a count
	// does).
	BoostedIntervals int `json:"boosted_intervals,omitempty"`
	// SpillInServed / SpillInDropped aggregate the remote-origin
	// queries geo-routing spilled into this result's fleet.
	SpillInServed  int `json:"spill_in_served,omitempty"`
	SpillInDropped int `json:"spill_in_dropped,omitempty"`
	// Regions holds the per-region results of a multi-region replay
	// (MultiEngine.RunDay); the enclosing DayResult is their global
	// merge. Empty for single-region runs.
	Regions []DayResult `json:"regions,omitempty"`
}

// RunDay replays the workloads' aligned diurnal traces end to end and
// returns per-interval and aggregate serving metrics.
//
// With a Timeline set, each interval first applies the scenario's
// traffic effects (load scaling, query-mix shifts, admission shedding)
// and fleet effects (kills, derates). Kills bite immediately — the
// affected instances vanish from the serving pools mid-replay — but the
// control plane only learns of them at the interval's end, triggering
// an early re-provision at the next boundary against the degraded
// availability. Derates are never reported to the control plane: only
// tail latency (and hence the autoscaler) can see them.
func (e *Engine) RunDay(ws []cluster.Workload) (DayResult, error) {
	if err := e.beginDay(ws); err != nil {
		res := e.run.res
		e.run = nil
		return res, err
	}
	for i := 0; i < e.run.steps; i++ {
		e.stepInterval(i, nil)
	}
	return e.endDay(), nil
}

// dayRun is one in-flight RunDay's cross-interval state. Factoring it
// out of the loop lets the replay be driven two ways: RunDay's own
// beginDay → stepInterval × steps → endDay sequence, or interval-by-
// interval by MultiEngine, which interleaves the regions' engines so a
// geo-router can move load between them at every step.
type dayRun struct {
	ws    []cluster.Workload
	res   DayResult
	agg   *dayAggregator
	sinks []Observer
	steps int
	stepS float64
	every int

	insts        map[string][]*Instance
	active       cluster.StepResult
	earlyPending bool
	extraR       float64
	// knownFleet is the control plane's (detection-lagged) view of
	// scenario fleet health: kills observed up to the previous interval.
	knownFleet scenario.Effects
	// triggersBefore is the scaler's cumulative trigger count when the
	// day began; the day reports its own triggers as the difference.
	triggersBefore int
}

// beginDay validates the workloads, resolves policies, compiles the
// scenario, seeds the per-day state and starts the worker pool. Every
// error path leaves e.run set (its res carries the run's labels) and
// the pool unstarted; on success the caller owns a stepInterval ×
// steps → endDay obligation.
func (e *Engine) beginDay(ws []cluster.Workload) error {
	e.run = &dayRun{ws: ws}
	r := e.run
	r.res = DayResult{Router: e.Router, Policy: e.Provisioner.Kind.String(), Scenario: "baseline"}
	if e.Scaler != nil {
		r.res.Scaler = e.Scaler.Name()
		r.triggersBefore = e.Scaler.TriggerCount()
	}
	if e.Admission != nil {
		r.res.Admission = e.Admission.Name()
	}
	if len(ws) == 0 {
		return fmt.Errorf("fleet: no workloads")
	}
	if e.Timeline == nil && e.Scenario.Active() {
		if err := e.ApplyScenario(e.Scenario, ws); err != nil {
			return err
		}
	}
	if e.Timeline != nil && e.Timeline.Name != "" {
		r.res.Scenario = e.Timeline.Name
	}
	var err error
	if e.newRouter, err = RouterFactory(e.Router); err != nil {
		return err
	}
	if e.Service == nil {
		e.Service = NewSimService(e.Table)
	}
	e.models = make(map[string]*model.Model, len(ws))
	for _, w := range ws {
		m, err := model.ByName(w.Model, model.Prod)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		e.models[w.Model] = m
	}
	e.meanSvc = make(map[pairKey]float64)
	e.batchEff = make(map[pairKey][]float64)
	e.idleW = make(map[string]float64)
	e.prevObs = make(map[string]modelObs, len(ws))
	e.baseOverR = e.Provisioner.OverProvisionR
	e.cacheActive = e.Cache.Enabled()
	if e.cacheActive {
		names := make([]string, 0, len(ws))
		for _, w := range ws {
			names = append(names, w.Model)
		}
		e.cacheInit(names)
	}

	steps := ws[0].Trace.Steps()
	for _, w := range ws[1:] {
		steps = min(steps, w.Trace.Steps())
	}
	if steps == 0 {
		return fmt.Errorf("fleet: empty traces")
	}
	if e.TraceSrc != nil && e.TraceSrc.Steps() < steps {
		return fmt.Errorf("fleet: trace has %d intervals, workloads span %d",
			e.TraceSrc.Steps(), steps)
	}
	r.steps = steps
	r.stepS = ws[0].Trace.StepS
	r.every = max(e.Opts.ReprovisionEvery, 1)

	// Compile the grid intensity timeline against the day's geometry,
	// folding the region's diurnal phase so a phase-shifted region's
	// grid tracks its local clock. No grid → nil timeline → every
	// carbon branch below is dead and the replay is byte-identical to a
	// grid-less build.
	e.gridTL = nil
	if e.Grid.Enabled() {
		region, phaseH := "local", 0.0
		if len(e.Spec.Regions) == 1 {
			region, phaseH = e.Spec.Regions[0].Name, e.Spec.Regions[0].PhaseH
		}
		tl, err := e.Grid.Compile(region, steps, r.stepS, phaseH)
		if err != nil {
			return err
		}
		e.gridTL = tl
	}

	// One bounded worker pool serves the whole day: started here, fed
	// each interval's per-model and per-shard phases as batches of
	// independent tasks, drained by endDay. RNG streams are seeded per
	// (interval, model) and (interval, model, shard), so scheduling
	// order cannot leak into results.
	if !e.Opts.Sequential {
		// Capped at 16: shard counts rarely exceed Shards × models, and
		// an unbounded pool would make the replay's (small, gated)
		// allocation profile scale with the host's core count.
		workers := min(runtime.NumCPU(), 16)
		e.scratch.work = make(chan task, workers)
		for w := 0; w < workers; w++ {
			go func(work <-chan task) {
				for t := range work {
					t.do()
					e.scratch.wg.Done()
				}
			}(e.scratch.work)
		}
	}

	// The DayResult aggregation is itself an Observer on the interval
	// stream — the first in line, ahead of any caller-registered sinks,
	// so external observers see exactly what the aggregate is built
	// from.
	r.agg = &dayAggregator{res: &r.res}
	r.sinks = append([]Observer{r.agg}, e.Observers...)
	return nil
}

// offeredLoads sums interval i's offered QPS per model, with the
// scenario's traffic scaling applied (replayed traces carry
// post-scenario loads — their offers were recorded after spike
// scaling — so only synthesized days scale here).
func (e *Engine) offeredLoads(i int, eff scenario.Effects) map[string]float64 {
	loads := make(map[string]float64, len(e.run.ws))
	for _, w := range e.run.ws {
		loads[w.Model] += w.Trace.LoadsQPS[i]
	}
	if e.TraceSrc == nil {
		for m := range loads {
			loads[m] *= eff.Load(m)
		}
	}
	return loads
}

// geoAdjust is one region's geo-routing outcome for one interval: the
// fraction of home load kept local, the remote-origin load arriving
// per model, the inbound-weighted mean inter-region RTT those remote
// queries pay on top of serving latency, and the home load routed
// away. nil means no geo layer — the interval replays exactly as a
// single-region day.
type geoAdjust struct {
	keep    float64
	inbound map[string]float64
	rttS    float64
	outQPS  float64
}

// stepInterval replays one trace interval against the current fleet
// state: re-provision if due, apply scenario fleet effects, replay the
// slice, decorate and publish the interval, and latch the autoscaler
// and fleet-health signals for the next boundary. Must be called with
// consecutive i after beginDay.
func (e *Engine) stepInterval(i int, adj *geoAdjust) IntervalStats {
	r := e.run
	eff := e.Timeline.At(i)
	loads := e.offeredLoads(i, eff)
	if adj != nil {
		for m := range loads {
			loads[m] *= adj.keep
		}
		for m, add := range adj.inbound {
			loads[m] += add
		}
	}
	scheduled := i%r.every == 0
	reprovision := i == 0 || scheduled || r.earlyPending
	if reprovision {
		// A carbon-aware scaler may return negative extraR to run lean
		// in dirty hours; headroom never goes below zero.
		e.Provisioner.OverProvisionR = math.Max(e.baseOverR+r.extraR, 0)
		e.Provisioner.Unavailable = r.knownFleet.Killed
		provLoads := loads
		if e.cacheActive {
			// The control plane provisions for the backend (miss)
			// load: offered load net of each model's lagged measured
			// hit rate. The lag is what turns a cache flush into a
			// storm — the fleet stays sized for the warm-cache miss
			// rate until the next re-provision learns otherwise.
			provLoads = e.cacheMissLoads(loads)
		}
		r.active = e.Provisioner.Step(provLoads)
		r.insts = e.buildInstances(r.active.Alloc)
	}

	pools, dead := e.effectiveInstances(r.insts, eff)
	ist := e.replayInterval(i, r.stepS, loads, pools, eff, adj)
	ist.Reprovisioned = reprovision
	ist.EarlyReprovision = reprovision && r.earlyPending && !scheduled
	// extraR still holds the previous IntervalEnd's return — the
	// boost headroom in force for exactly this interval. (Consulting
	// Scaler.Boosted() here would read boostLeft one step ahead of
	// the interval being reported.)
	ist.Boosted = r.extraR > 0
	ist.ActiveServers = r.active.ActiveServers
	ist.DeadServers = dead
	ist.PowerCappedTypes = len(eff.PowerCapW)
	ist.ProvisionedKW = r.active.ProvisionedPowerW / 1e3
	ist.ProvisionedEnergyKJ = r.active.ProvisionedPowerW * r.stepS / 1e3
	if e.gridTL != nil {
		ist.GridGPerKWh = e.gridTL.At(i)
		ist.CarbonG = power.CarbonG(ist.EnergyKJ, ist.GridGPerKWh)
	}
	if adj != nil {
		ist.SpillOutQPS = adj.outQPS
	}
	for _, o := range r.sinks {
		o.ObserveInterval(ist)
	}

	r.earlyPending, r.extraR = false, 0
	if e.Scaler != nil {
		if g, ok := e.Scaler.(GridObserver); ok && e.gridTL != nil {
			// The next interval's intensity plays the role of the
			// day-ahead forecast a grid operator publishes (At wraps at
			// the day boundary), judged against the day's mean.
			g.ObserveGrid(e.gridTL.At(i+1), e.gridTL.MeanG())
		}
		r.earlyPending, r.extraR = e.Scaler.IntervalEnd()
	}
	if !eff.SameFleetState(r.knownFleet) {
		// Health checks noticed servers dying or returning during
		// this interval: re-provision at the next boundary against
		// the new availability.
		r.knownFleet = eff
		r.earlyPending = true
	}
	return ist
}

// endDay closes the worker pool, finalizes the aggregation and
// restores the provisioner, returning the day's result.
func (e *Engine) endDay() DayResult {
	r := e.run
	if e.scratch.work != nil {
		close(e.scratch.work)
		e.scratch.work = nil
	}
	r.agg.finish(r.steps)
	if e.Scaler != nil {
		r.res.AutoscaleEvents = e.Scaler.TriggerCount() - r.triggersBefore
	}
	e.Provisioner.OverProvisionR = e.baseOverR
	e.Provisioner.Unavailable = nil
	e.run = nil
	return r.res
}

// effectiveInstances applies a scenario's fleet effects to the
// provisioned pools: killed servers disappear (highest instance IDs of
// the affected type first — one failure domain), derated servers are
// replaced by slowed clones. It returns the pools to replay against
// plus the fleet-wide count of down servers. With no fleet effects the
// input pools are returned untouched.
func (e *Engine) effectiveInstances(insts map[string][]*Instance, eff scenario.Effects) (map[string][]*Instance, int) {
	capFrac := e.powercapFrac(eff)
	if len(eff.Killed) == 0 && len(eff.DerateFrac) == 0 && len(capFrac) == 0 {
		return insts, 0
	}
	fleetCount := e.fleetCounts()
	builtOfType := make(map[string]int)
	for _, pool := range insts {
		for _, in := range pool {
			builtOfType[in.Type]++
		}
	}
	// A type's pools can keep at most (fleet - killed) live servers;
	// anything the current allocation holds beyond that is dead. When
	// the allocation was computed against the degraded availability,
	// the budget is zero and nothing is filtered.
	deadIDs := make(map[int]bool)
	deadServers := 0
	types := make([]string, 0, len(eff.Killed))
	for t := range eff.Killed {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		killed := min(eff.Killed[t], fleetCount[t])
		deadServers += killed
		budget := builtOfType[t] - (fleetCount[t] - killed)
		if budget <= 0 {
			continue
		}
		var ids []int
		for _, pool := range insts {
			for _, in := range pool {
				if in.Type == t {
					ids = append(ids, in.ID)
				}
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
		for _, id := range ids[:budget] {
			deadIDs[id] = true
		}
	}
	out := make(map[string][]*Instance, len(insts))
	for m, pool := range insts {
		kept := make([]*Instance, 0, len(pool))
		for _, in := range pool {
			if deadIDs[in.ID] {
				continue
			}
			// A derate and a powercap on the same type never coexist
			// (scenario validation rejects the overlap), but a powercap
			// composes with the type's survivors of a kill.
			f := eff.DerateOf(in.Type)
			if cf, ok := capFrac[in.Type]; ok {
				f *= cf
			}
			if f < 1 {
				in = in.Slowed(1 / f)
			}
			kept = append(kept, in)
		}
		out[m] = kept
	}
	return out, deadServers
}

// fleetCounts aggregates the fleet's availability by server type.
func (e *Engine) fleetCounts() map[string]int {
	counts := make(map[string]int, len(e.Fleet.Types))
	for i, srv := range e.Fleet.Types {
		counts[srv.Type] += e.Fleet.Counts[i]
	}
	return counts
}

// powercapPerServerW splits each powercapped type's total watt budget
// across the type's surviving servers this interval — the per-server
// power ceiling the energy sweep enforces. nil when no cap is active.
func (e *Engine) powercapPerServerW(eff scenario.Effects) map[string]float64 {
	if len(eff.PowerCapW) == 0 {
		return nil
	}
	counts := e.fleetCounts()
	out := make(map[string]float64, len(eff.PowerCapW))
	for t, w := range eff.PowerCapW {
		alive := min(eff.KilledOf(t), counts[t])
		alive = counts[t] - alive
		if alive <= 0 {
			continue
		}
		out[t] = w / float64(alive)
	}
	return out
}

// powercapFrac converts the interval's per-server watt ceilings into
// service-rate multipliers: a server held at a fraction of its TDP
// runs at (to first order) that fraction of its service rate, floored
// at 5% so a starvation-level budget slows servers instead of
// dividing by zero. Types whose budget covers full TDP are absent
// (no throttle).
func (e *Engine) powercapFrac(eff scenario.Effects) map[string]float64 {
	per := e.powercapPerServerW(eff)
	if per == nil {
		return nil
	}
	out := make(map[string]float64, len(per))
	for t, w := range per {
		tdp := e.tdpWatts(t)
		if tdp <= 0 {
			continue
		}
		if f := math.Min(math.Max(w/tdp, 0.05), 1); f < 1 {
			out[t] = f
		}
	}
	return out
}

// tdpWatts resolves (and caches) a server type's TDP.
func (e *Engine) tdpWatts(t string) float64 {
	if w, ok := e.tdpW[t]; ok {
		return w
	}
	var w float64
	if srv, err := serverByType(t); err == nil {
		w = srv.TDPWatts()
	}
	if e.tdpW == nil {
		e.tdpW = make(map[string]float64)
	}
	e.tdpW[t] = w
	return w
}

// buildInstances turns an allocation into per-model instance pools
// with deterministic IDs (types and models visited in sorted order).
func (e *Engine) buildInstances(alloc cluster.Allocation) map[string][]*Instance {
	out := make(map[string][]*Instance)
	types := make([]string, 0, len(alloc))
	for h := range alloc {
		types = append(types, h)
	}
	sort.Strings(types)
	e.instSeq = 0
	for _, h := range types {
		row := alloc[h]
		names := make([]string, 0, len(row))
		for m := range row {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			entry, ok := e.Table.Get(h, m)
			if !ok || entry.QPS <= 0 || row[m] <= 0 {
				continue
			}
			conc := e.concurrency(h, m, entry.QPS)
			svc := e.pairService(h, m)
			weight := entry.QPS
			batchCap, eff := 1, []float64(nil)
			if e.Opts.MaxBatch > 1 {
				eff = e.pairBatchEff(h, m, e.Opts.MaxBatch)
				mean := e.meanSvc[pairKey{h, m}] // populated by concurrency()
				batchCap = batchCapFor(eff, mean, entry.QPS, e.models[m].SLATargetMS, e.Opts.MaxBatch)
				if batchCap > 1 {
					// The router's capacity signal tracks the batched
					// saturation throughput cap / batch makespan =
					// 1 / (eff × E[solo]): pairs whose batches amortize
					// well (accelerators, NMP) legitimately absorb more
					// in-flight queries under the heterogeneity-aware
					// policy.
					weight = math.Max(entry.QPS, 1/(eff[batchCap]*mean))
				}
			}
			for k := 0; k < row[m]; k++ {
				in := NewInstance(e.instSeq, h, m, weight, conc, e.Opts.QueueCap, svc)
				if batchCap > 1 {
					in.EnableBatching(batchCap, e.Opts.BatchWaitS, eff[:batchCap+1])
				}
				out[m] = append(out[m], in)
				e.instSeq++
			}
		}
	}
	return out
}

// pairService resolves the per-query service-time function for a
// (server type, model) pair once, at instance-build time. Sources that
// implement PairSource hand back their precomputed sampler directly —
// the replay loop then never pays a per-query pair lookup; other
// sources fall back to a closure over the generic ServiceS path.
func (e *Engine) pairService(serverType, modelName string) func(size int, scale float64) float64 {
	if ps, ok := e.Service.(PairSource); ok {
		if f := ps.PairService(serverType, modelName); f != nil {
			return f
		}
	}
	return func(size int, scale float64) float64 {
		return e.Service.ServiceS(serverType, modelName, size, scale)
	}
}

// batchSLABudgetFrac is the share of a model's SLA a full batch's
// makespan may occupy; the remainder is left for queueing and the
// batch-formation wait. 0.35 keeps batched tails inside the SLA at the
// ~87% utilization the provisioner targets — a makespan at half the
// SLA leaves too little queueing room there.
const batchSLABudgetFrac = 0.35

// batchCapFor derives a pair's effective dynamic-batching cap from its
// measured efficiency curve: the largest batch size (up to the global
// MaxBatch) whose batched saturation throughput 1/(eff[n]·E[solo])
// beats the pair's calibrated unbatched capacity AND whose full-batch
// makespan eff[n]·n·E[solo] fits inside the SLA budget. Pairs whose
// batches never win — heavily contended models, or SLAs too tight for
// any batch makespan — keep cap 1 and replay unbatched: dynamic
// batching must be an optimization the measurements justify, never a
// blanket policy.
func batchCapFor(eff []float64, meanSvcS, qps, slaMS float64, maxBatch int) int {
	if len(eff) <= maxBatch || meanSvcS <= 0 || math.IsInf(meanSvcS, 0) || qps <= 0 {
		return 1
	}
	budgetS := slaMS / 1e3 * batchSLABudgetFrac
	for n := maxBatch; n >= 2; n-- {
		if eff[n] <= 0 {
			continue
		}
		sat := 1 / (eff[n] * meanSvcS)
		makespan := eff[n] * float64(n) * meanSvcS
		if sat >= qps && (slaMS <= 0 || makespan <= budgetS) {
			return n
		}
	}
	return 1
}

// pairBatchEff resolves (and caches per RunDay) the batching-efficiency
// curve for a pair. Sources that do not implement BatchSource — or
// cannot price the pair — yield nil, and batchCapFor then keeps the
// pair unbatched: the engine never batches on an unmeasured curve.
// (Instance.EnableBatching itself accepts a nil curve as pure
// coalescing, for tests and tools that construct pools directly.)
func (e *Engine) pairBatchEff(serverType, modelName string, maxBatch int) []float64 {
	k := pairKey{serverType, modelName}
	if eff, ok := e.batchEff[k]; ok {
		return eff
	}
	var eff []float64
	if bs, ok := e.Service.(BatchSource); ok {
		eff = bs.PairBatchEff(serverType, modelName, maxBatch)
	}
	e.batchEff[k] = eff
	return eff
}

// concurrency calibrates an instance's service channels so that its
// saturation throughput (c / E[service]) matches the profiled
// latency-bounded capacity of the pair.
func (e *Engine) concurrency(serverType, modelName string, qps float64) int {
	k := pairKey{serverType, modelName}
	mean, ok := e.meanSvc[k]
	if !ok {
		// Seed from the pair's identity, not discovery order: the same
		// (type, model) must calibrate identically regardless of which
		// allocation introduced it first.
		mean = meanServiceS(e.Service, serverType, modelName,
			mixSeed(e.Opts.Seed, 0x5eed, hashString(serverType), hashString(modelName)))
		e.meanSvc[k] = mean
	}
	if math.IsInf(mean, 0) || mean <= 0 || qps <= 0 {
		return 1
	}
	// Ceil, not round: the profiler certified the pair sustains qps
	// under its SLA, so the queue model must not undershoot it — with
	// small channel counts, rounding down would hide up to 1/(2c) of
	// certified capacity and fabricate breaches.
	return stats.ClampInt(int(math.Ceil(qps*mean)), 1, 256)
}

// idleWatts caches the idle power of a server type.
func (e *Engine) idleWatts(serverType string) float64 {
	if w, ok := e.idleW[serverType]; ok {
		return w
	}
	w := 0.0
	if srv, err := serverByType(serverType); err == nil {
		w = srv.IdleWatts()
	}
	e.idleW[serverType] = w
	return w
}

// shardWork is one (model, shard) replay task: a disjoint slice of the
// model's instances plus the queries deterministically thinned onto it.
// Shard tasks are pooled by replayScratch and reused across intervals;
// reset re-arms one, keeping its backing arrays.
type shardWork struct {
	modelName string
	slaMS     float64
	insts     []*Instance
	queries   []workload.Query

	newRouter func() Router
	seed      int64
	windowW   float64
	windows   int
	sliceS    float64 // busy-accounting horizon for this interval's slice

	// comps is the completions scratch of batching instances, reused
	// across queries and intervals.
	comps []Completion

	// Cache tier: cacheHR > 0 enables the hit test — a deterministic
	// Bernoulli draw on cacheStream hashed with the query ID, so the
	// set of hits is a pure function of the query's identity, never of
	// shard layout. Hits complete at cacheLatS and skip routing.
	cacheHR     float64
	cacheLatS   float64
	cacheStream uint64

	// Geo spill: remoteFrac > 0 marks that fraction of the stream as
	// remote-origin queries a geo-router spilled into this region. Like
	// cache hits, membership is a deterministic Bernoulli draw (on
	// remoteStream) hashed from the query's identity, so shard layout
	// can never change which queries are remote. Remote queries pay
	// remoteRTTS on top of serving (or cache-hit) latency and are
	// counted separately served/dropped.
	remoteFrac    float64
	remoteRTTS    float64
	remoteStream  uint64
	remoteServed  int
	remoteDropped int

	// trace stages this shard's sampled lifecycle events (single
	// writer: exactly this shard during the interval); the engine
	// drains it in deterministic shard order afterwards. traceOn gates
	// every tracing branch so the untraced replay pays one boolean test
	// per query.
	trace   telemetry.ShardBuf
	traceOn bool

	// useSketch selects the sketch-based tail path: latencies stream
	// into per-window quantile sketches instead of the exact sample
	// buffers.
	useSketch bool

	// outputs
	winLatS  [][]float64    // per-window latency samples (seconds)
	winSk    []stats.Sketch // per-window sketches (ms), when useSketch
	winDrops []int
	dropped  int
	hits     int // queries the cache tier served
}

// reset re-arms a pooled shard for an interval with the given window
// count, reusing every backing array. Tracing is re-armed separately
// (the engine arms trace/traceOn per model).
func (w *shardWork) reset(windows int, useSketch bool) {
	w.insts = w.insts[:0]
	w.queries = w.queries[:0]
	w.dropped = 0
	w.hits = 0
	w.cacheHR = 0
	w.remoteFrac, w.remoteRTTS = 0, 0
	w.remoteServed, w.remoteDropped = 0, 0
	w.windows = windows
	w.traceOn = false
	w.useSketch = useSketch
	for cap(w.winLatS) < windows {
		w.winLatS = append(w.winLatS[:cap(w.winLatS)], nil)
	}
	w.winLatS = w.winLatS[:windows]
	for i := range w.winLatS {
		w.winLatS[i] = w.winLatS[i][:0]
	}
	if useSketch {
		for cap(w.winSk) < windows {
			w.winSk = append(w.winSk[:cap(w.winSk)], stats.Sketch{})
		}
		w.winSk = w.winSk[:windows]
		for i := range w.winSk {
			armSketch(&w.winSk[i])
		}
	}
	if cap(w.winDrops) < windows {
		w.winDrops = make([]int, windows)
	}
	w.winDrops = w.winDrops[:windows]
	for i := range w.winDrops {
		w.winDrops[i] = 0
	}
}

// armSketch readies a pooled value sketch: first use initializes it at
// the engine's tail accuracy, reuse just clears the observations.
func armSketch(s *stats.Sketch) {
	if s.Alpha == 0 {
		s.Init(stats.DefaultSketchAlpha)
	} else {
		s.Reset()
	}
}

// observe records one served query's latency into its observation
// window — the exact sample buffer, or the window's quantile sketch
// (in milliseconds, the unit every tail threshold uses) on the sketch
// path.
func (w *shardWork) observe(wi int, latS float64) {
	if w.useSketch {
		w.winSk[wi].Add(latS * 1e3)
		return
	}
	w.winLatS[wi] = append(w.winLatS[wi], latS)
}

// cacheServe runs one query through the cache tier: a hit completes at
// cache latency (plus the query's inter-region RTT when it arrived by
// geo spill), counts as served, and never reaches a router (nor a
// drop — the tier sits ahead of the pool-empty check). Returns whether
// the query was served there.
func (w *shardWork) cacheServe(q workload.Query, wi int, sampled bool, rttS float64) bool {
	if w.cacheHR <= 0 || !cacheHit(w.cacheStream, q.ID, w.cacheHR) {
		return false
	}
	w.hits++
	w.observe(wi, w.cacheLatS+rttS)
	if sampled {
		ev := w.trace.Emit(telemetry.KindHit, q.ID, q.ArrivalS)
		ev.Value = w.cacheLatS + rttS
	}
	return true
}

// traceServed emits the service-side events of one sampled query:
// enqueue (queue wait), start (with batch size), end (service span)
// and complete (total latency).
func (w *shardWork) traceServed(qid int64, instID int, arrS, startS, doneS float64, batch int) {
	ev := w.trace.Emit(telemetry.KindEnqueue, qid, startS)
	ev.Instance = int32(instID)
	ev.Value = startS - arrS
	ev = w.trace.Emit(telemetry.KindStart, qid, startS)
	ev.Instance = int32(instID)
	ev.Value = float64(batch)
	ev = w.trace.Emit(telemetry.KindEnd, qid, doneS)
	ev.Instance = int32(instID)
	ev.Value = doneS - startS
	ev = w.trace.Emit(telemetry.KindComplete, qid, doneS)
	ev.Instance = int32(instID)
	ev.Value = doneS - arrS
}

// run is the replay loop of one shard: every query is offered to the
// cache tier, then routed and served. Unbatched instances (MaxBatch 1)
// report each latency at arrival; batching instances report latencies
// when batches dispatch (window expiry, a full batch, or the
// end-of-slice drain), bucketed into observation windows by each
// query's own arrival instant — the same accounting, just deferred.
// Pools mix both kinds (each pair derives its own batch cap from the
// measured efficiency curve), so the loop branches per pick.
func (w *shardWork) run() {
	router := w.newRouter()
	rng := stats.NewRand(w.seed)
	for _, in := range w.insts {
		in.ResetSlice(w.sliceS)
	}
	trouter, _ := router.(TracedRouter)
	for _, q := range w.queries {
		wi := stats.ClampInt(int(q.ArrivalS/w.windowW), 0, w.windows-1)
		remote := w.remoteFrac > 0 && cacheHit(w.remoteStream, q.ID, w.remoteFrac)
		rtt := 0.0
		if remote {
			rtt = w.remoteRTTS
		}
		sampled := w.traceOn && w.trace.Sampled(q.ID)
		if sampled {
			ev := w.trace.Emit(telemetry.KindArrival, q.ID, q.ArrivalS)
			ev.Value = float64(q.Size)
			ev.Aux = q.SparseScale
		}
		if w.cacheServe(q, wi, sampled, rtt) {
			if remote {
				w.remoteServed++
			}
			continue
		}
		if len(w.insts) == 0 {
			w.drop(q, wi, remote, sampled, -1)
			continue
		}
		var pick int
		if sampled {
			ev := w.trace.Emit(telemetry.KindRoute, q.ID, q.ArrivalS)
			if trouter != nil {
				pick = trouter.PickTraced(w.insts, q.ArrivalS, rng, ev)
			} else {
				pick = router.Pick(w.insts, q.ArrivalS, rng)
			}
			ev.Instance = int32(w.insts[pick].ID)
			if trouter == nil {
				ev.Cand[0] = ev.Instance
				ev.NCand = 1
			}
		} else {
			pick = router.Pick(w.insts, q.ArrivalS, rng)
		}
		in := w.insts[pick]
		if in.MaxBatch <= 1 {
			start, done, drop := in.arrive(q.ArrivalS, q.Size, q.SparseScale)
			if drop {
				w.drop(q, wi, remote, sampled, in.ID)
				continue
			}
			if sampled {
				w.traceServed(q.ID, in.ID, q.ArrivalS, start, done, 1)
			}
			if remote {
				w.remoteServed++
			}
			w.observe(wi, done-q.ArrivalS+rtt)
			continue
		}
		comps, drop := in.ArriveBatched(q.ID, q.ArrivalS, q.Size, q.SparseScale, w.comps[:0])
		w.comps = comps[:0]
		if drop {
			w.drop(q, wi, remote, sampled, in.ID)
		} else if sampled {
			// The query joined a forming batch (its Start/End events
			// surface with the dispatch's completions); record its
			// 1-based position — a full batch dispatched immediately, so
			// an empty forming batch means it rode out at MaxBatch.
			pos := in.Pending()
			if pos == 0 {
				pos = in.MaxBatch
			}
			ev := w.trace.Emit(telemetry.KindBatch, q.ID, q.ArrivalS)
			ev.Instance = int32(in.ID)
			ev.Value = float64(pos)
		}
		w.record(in.ID, comps)
	}
	for _, in := range w.insts {
		if in.MaxBatch <= 1 {
			continue
		}
		comps := in.FlushPending(w.comps[:0])
		w.comps = comps[:0]
		w.record(in.ID, comps)
	}
}

// drop counts one rejected query — at the empty pool (instID -1) or at
// an instance's bounded queue — against its window and, when it
// arrived by geo spill, against the remote tally.
func (w *shardWork) drop(q workload.Query, wi int, remote, sampled bool, instID int) {
	w.dropped++
	w.winDrops[wi]++
	if remote {
		w.remoteDropped++
	}
	if sampled {
		ev := w.trace.Emit(telemetry.KindDrop, q.ID, q.ArrivalS)
		ev.Instance = int32(instID)
	}
}

// record buckets a dispatch's completions into observation windows by
// arrival instant, and emits the deferred service events of sampled
// members (all completions in one drain come from the same instance).
// A completion's remote-origin verdict re-draws on its query ID — the
// same draw its arrival made — so deferred dispatch cannot change
// which queries pay RTT.
func (w *shardWork) record(instID int, comps []Completion) {
	for _, c := range comps {
		wi := stats.ClampInt(int(c.ArrivalS/w.windowW), 0, w.windows-1)
		rtt := 0.0
		if w.remoteFrac > 0 && cacheHit(w.remoteStream, c.ID, w.remoteFrac) {
			rtt = w.remoteRTTS
			w.remoteServed++
		}
		w.observe(wi, c.DoneS-c.ArrivalS+rtt)
		if w.traceOn && w.trace.Sampled(c.ID) {
			w.traceServed(c.ID, instID, c.ArrivalS, c.StartS, c.DoneS, c.Batch)
		}
	}
}

// task is one unit of an interval phase on the day's worker pool: a
// shard replay (*shardWork) or a per-model phase (*modelWork). Tasks
// travel as pointers behind this interface, so handing one to the pool
// allocates nothing.
type task interface{ do() }

func (w *shardWork) do() { w.run() }

// runPhase runs one interval phase's independent tasks on the day's
// worker pool, or in place when the replay is sequential or the phase
// has a single task. Each task writes only its own state, so the
// results are bit-identical either way.
func runPhase[T task](sc *replayScratch, ts []T) {
	if sc.work == nil || len(ts) <= 1 {
		for _, t := range ts {
			t.do()
		}
		return
	}
	sc.wg.Add(len(ts))
	for _, t := range ts {
		sc.work <- t
	}
	sc.wg.Wait()
}

// modelPhase selects the per-model phase modelWork.do runs.
type modelPhase uint8

const (
	phasePrepare modelPhase = iota
	phaseTails
)

// modelWork is one model's share of an interval: its shard tasks plus
// the inputs and outputs of the two pooled per-model phases. prepare
// fills the shards' query buffers; tails turns the shards' latencies
// into the model's window breach verdicts and tail percentiles. The
// replay goroutine sets every input before a phase runs, so a phase
// never touches engine or policy state. Pooled by replayScratch and
// reused across intervals.
type modelWork struct {
	phase  modelPhase
	name   string
	shards []*shardWork

	// prepare: the stream's RNGs are seeded from (seed, idx, mi).
	seed     int64
	idx, mi  int
	sliceS   float64
	replayed bool             // copy recorded instead of generating
	recorded []workload.Query // the trace's stream (read-only)
	mdl      *model.Model
	loadQPS  float64
	mixScale float64 // the scenario's query-size mix shift
	shedFrac float64
	// queries stages the stream ahead of the shard split; a model with
	// one shard builds its stream straight into that shard's buffer.
	queries []workload.Query
	// shedBuf stages the model's engine-level trace stream: the
	// interval's offer record (the offered load and slice the replay
	// provisioned with — what lets a recorded trace re-provision
	// identically on re-ingestion), then arrival+shed pairs of sampled
	// shed queries. The replay goroutine ingests it ahead of the shard
	// events, in model order.
	shedBuf telemetry.ShardBuf
	traceOn bool
	shed    int

	// tails: lat is the model's disjoint range of the interval latency
	// buffer (exact path), winSk and modelSk the sketch path's merge
	// targets.
	useSketch bool
	tailPct   float64
	limitMS   float64 // breach threshold: SLA × the scaler's factor
	lat       []float64
	winSk     stats.Sketch
	modelSk   stats.Sketch
	breached  []bool // per window
	p95, p99  float64
}

func (mw *modelWork) do() {
	if mw.phase == phaseTails {
		mw.tails()
		return
	}
	mw.prepare()
}

// prepare builds the model's stream — generated, or copied from the
// recorded trace — thins it by the shed fraction, and splits it onto
// the shards by deterministic draws, which preserves the Poisson
// property per shard and makes parallel replay bit-identical to
// sequential replay.
func (mw *modelWork) prepare() {
	dst := &mw.queries
	if len(mw.shards) == 1 {
		dst = &mw.shards[0].queries
	}
	qs := (*dst)[:0]
	if mw.replayed {
		// Copied before the in-place shed thinning below. Mix shifts are
		// skipped along with load scaling — both are already baked into
		// the recorded stream.
		qs = append(qs, mw.recorded...)
	} else {
		gen := workload.NewGenerator(mw.mdl, mw.loadQPS, mixSeed(mw.seed, 0x9e37+int64(mw.idx), int64(mw.mi)))
		if mw.mixScale != 1 {
			// Shift the lognormal's median: the mix rotation makes every
			// query mixScale× heavier without touching the arrival process.
			gen.Sizes.Mu += math.Log(mw.mixScale)
		}
		qs = gen.AppendUntil(qs, mw.sliceS)
	}
	if mw.shedFrac > 0 {
		// Admission control drops a deterministic Bernoulli thinning of
		// the stream (in place); shed queries never reach a router.
		shedR := stats.NewRand(mixSeed(mw.seed, 0x5ed0+int64(mw.idx), int64(mw.mi)))
		kept := qs[:0]
		for _, q := range qs {
			if shedR.Float64() < mw.shedFrac {
				mw.shed++
				if mw.traceOn && mw.shedBuf.Sampled(q.ID) {
					ev := mw.shedBuf.Emit(telemetry.KindArrival, q.ID, q.ArrivalS)
					ev.Value = float64(q.Size)
					ev.Aux = q.SparseScale
					ev = mw.shedBuf.Emit(telemetry.KindShed, q.ID, q.ArrivalS)
					ev.Value = mw.shedFrac
				}
				continue
			}
			kept = append(kept, q)
		}
		qs = kept
	}
	*dst = qs
	if n := len(mw.shards); n > 1 {
		split := stats.NewRand(mixSeed(mw.seed, 0x517+int64(mw.idx), int64(mw.mi)))
		for _, q := range qs {
			sh := mw.shards[split.Intn(n)]
			sh.queries = append(sh.queries, q)
		}
	}
}

// tails reads the model's window breach verdicts and its p95 and p99.
// The exact path copies each window's shard latencies (in ms) into that
// window's sub-range of lat and selects the breach percentile in place
// there, then selects p95 and p99 on the whole range. The sketch path
// merges the shards' window sketches (bucket-wise, order-independent)
// into window sketches and those into the model sketch; no latency
// sample is buffered.
func (mw *modelWork) tails() {
	if mw.useSketch {
		armSketch(&mw.modelSk)
		for w := range mw.breached {
			armSketch(&mw.winSk)
			drops := 0
			for _, sh := range mw.shards {
				mw.winSk.Merge(&sh.winSk[w])
				drops += sh.winDrops[w]
			}
			mw.breached[w] = drops > 0 || (mw.winSk.Count() > 0 && mw.winSk.Quantile(mw.tailPct) > mw.limitMS)
			mw.modelSk.Merge(&mw.winSk)
		}
		mw.p95, mw.p99 = mw.modelSk.Quantile(95), mw.modelSk.Quantile(99)
		return
	}
	off := 0
	for w := range mw.breached {
		start, drops := off, 0
		for _, sh := range mw.shards {
			dst := mw.lat[off : off+len(sh.winLatS[w])]
			for i, l := range sh.winLatS[w] {
				dst[i] = l * 1e3
			}
			off += len(dst)
			drops += sh.winDrops[w]
		}
		win := mw.lat[start:off]
		mw.breached[w] = drops > 0 || (len(win) > 0 && stats.PercentileSelect(win, mw.tailPct) > mw.limitMS)
	}
	var out [2]float64
	stats.PercentilesSelect(mw.lat, []float64{95, 99}, out[:])
	mw.p95, mw.p99 = out[0], out[1]
}

// latencies counts the exact-path latency samples the model's shards
// recorded — the size of its range of the interval buffer.
func (mw *modelWork) latencies() int {
	n := 0
	for _, sh := range mw.shards {
		for _, win := range sh.winLatS {
			n += len(win)
		}
	}
	return n
}

// shedFrac composes the two shedding sources at one model's door: the
// scenario's load-shedding drills and the engine's admission policy,
// which conditions on what the previous interval observed. Independent
// Bernoulli thinnings compose multiplicatively. Called once per
// (interval, model), on the replay goroutine, in model order.
func (e *Engine) shedFrac(idx int, m string, slaMS, loadQPS float64, eff scenario.Effects) float64 {
	frac := eff.Shed(m)
	if e.Admission == nil {
		return frac
	}
	prev := e.prevObs[m]
	sig := AdmissionSignal{
		Model:        m,
		SLATargetMS:  slaMS,
		OfferedQPS:   loadQPS,
		PrevP99MS:    prev.p99MS,
		PrevDropFrac: prev.dropFrac,
	}
	if e.gridTL != nil {
		sig.GridGPerKWh = e.gridTL.At(idx)
		sig.GridMeanGPerKWh = e.gridTL.MeanG()
		sig.DeferrableFrac = e.Grid.Deferrable()
	}
	af := e.Admission.ShedFrac(sig)
	af = math.Min(math.Max(af, 0), 0.95)
	return 1 - (1-frac)*(1-af)
}

// replayInterval simulates one interval's sampled slice and
// extrapolates interval metrics. eff carries the interval's scenario
// traffic effects: query-size mix shifts rescale each generator's size
// distribution, and shed fractions thin the admitted stream before
// routing (loads arrive already scaled by the caller; fleet effects are
// already baked into insts). A non-nil adj marks the inbound share of
// each model's load as remote-origin geo spill paying adj.rttS.
//
// The interval runs in phases. Set-up (serial) builds every model's
// shard tasks and makes every call into a stateful policy — the cache
// tier's warmth and the admission policy, which reads prevObs — in
// model order. prepare (pooled, per model) builds each model's stream;
// run (pooled, per shard) routes and queues it; tails (pooled, per
// model) reads window verdicts and model tails. Accounting (serial)
// folds the models together in model order.
func (e *Engine) replayInterval(idx int, stepS float64, loads map[string]float64, insts map[string][]*Instance, eff scenario.Effects, adj *geoAdjust) IntervalStats {
	ist := IntervalStats{
		Index:      idx,
		TimeH:      float64(idx) * stepS / 3600,
		ModelP95MS: make(map[string]float64),
		ModelP99MS: make(map[string]float64),
	}
	names := make([]string, 0, len(loads))
	for m := range loads {
		names = append(names, m)
	}
	sort.Strings(names)
	// Sum in sorted-name order: float addition is not associative, so a
	// map-range sum would make the slice budget (and everything seeded
	// off it) depend on iteration order once three models share a day.
	var totalLoad float64
	for _, m := range names {
		totalLoad += loads[m]
	}
	ist.OfferedQPS = totalLoad
	if totalLoad <= 0 {
		return ist
	}

	// Size the slice: full offered rate, bounded total queries. A
	// replayed trace's recorded slice is authoritative — the recording
	// run already sized it, and re-deriving would couple byte identity
	// to matching engine tuning.
	sliceS := e.Opts.SliceS
	if budget := float64(e.Opts.MaxQueriesPerInterval); budget > 0 && totalLoad*sliceS > budget {
		sliceS = budget / totalLoad
	}
	if e.TraceSrc != nil {
		if rec := e.TraceSrc.Slice(idx); rec > 0 {
			sliceS = rec
		}
	}
	windows := stats.ClampInt(int(sliceS/e.Opts.WindowS), 2, 600)
	windowW := sliceS / float64(windows)
	ist.Windows = windows
	// Per-model windowed tails drive breach verdicts; the aggregate
	// distribution drives the interval percentiles.
	tailPct, slaFactor := 95.0, 1.0
	if e.Scaler != nil {
		tp, sf := e.Scaler.Thresholds()
		if tp > 0 {
			tailPct = tp
		}
		if sf > 0 {
			slaFactor = sf
		}
	}

	// Set-up: shard structs, query slices and window buckets all come
	// from the engine's scratch pool.
	shardCap := e.Opts.Shards
	if shardCap <= 0 {
		shardCap = runtime.NumCPU()
	}
	tr := e.Tracer
	useSketch := e.Opts.SketchTails
	scr := &e.scratch
	scr.used = 0
	scr.tasks = scr.tasks[:0]
	for len(scr.models) < len(names) {
		scr.models = append(scr.models, &modelWork{})
	}
	models := scr.models[:len(names)]
	cacheLatS := e.Cache.latencyS()
	for mi, m := range names {
		pool := insts[m]
		sla := e.models[m].SLATargetMS
		mh := hashString(m)
		cacheHR := 0.0
		if e.cacheActive {
			cacheHR = e.cacheAdvance(m, eff)
		}
		remoteFrac, remoteRTTS := 0.0, 0.0
		var remoteStream uint64
		if adj != nil && adj.inbound[m] > 0 && loads[m] > 0 {
			remoteFrac = math.Min(adj.inbound[m]/loads[m], 1)
			remoteRTTS = adj.rttS
			remoteStream = remoteStreamSeed(e.Opts.Seed, idx, mh)
		}
		n := max(min(shardCap, len(pool)), 1)
		first := len(scr.tasks)
		for s := 0; s < n; s++ {
			sh := scr.shard()
			sh.reset(windows, useSketch)
			sh.modelName = m
			sh.slaMS = sla
			sh.newRouter = e.newRouter
			sh.seed = mixSeed(e.Opts.Seed, int64(idx), int64(mi)<<8|int64(s))
			sh.windowW = windowW
			sh.sliceS = sliceS
			sh.cacheHR = cacheHR
			sh.cacheLatS = cacheLatS
			sh.cacheStream = cacheStreamSeed(e.Opts.Seed, idx, mh)
			sh.remoteFrac = remoteFrac
			sh.remoteRTTS = remoteRTTS
			sh.remoteStream = remoteStream
			if tr != nil {
				sh.trace.Arm(tr, idx, m, mh)
				sh.traceOn = true
			}
			scr.tasks = append(scr.tasks, sh)
		}
		shards := scr.tasks[first:]
		for j, in := range pool {
			shards[j%n].insts = append(shards[j%n].insts, in)
		}

		mw := models[mi]
		mw.phase = phasePrepare
		mw.name = m
		mw.shards = shards
		mw.seed, mw.idx, mw.mi = e.Opts.Seed, idx, mi
		mw.sliceS = sliceS
		mw.replayed = e.TraceSrc != nil
		mw.recorded = nil
		if mw.replayed {
			mw.recorded = e.TraceSrc.Queries(idx, m)
		}
		mw.mdl = e.models[m]
		mw.loadQPS = loads[m]
		mw.mixScale = eff.Size(m)
		mw.shedFrac = e.shedFrac(idx, m, sla, loads[m], eff)
		mw.shed = 0
		mw.traceOn = tr != nil
		if tr != nil {
			mw.shedBuf.Arm(tr, idx, m, mh)
			ev := mw.shedBuf.Emit(telemetry.KindOffer, -1, 0)
			ev.Value = loads[m]
			ev.Aux = sliceS
		}
		mw.useSketch = useSketch
		mw.tailPct = tailPct
		mw.limitMS = sla * slaFactor
		mw.breached = slices.Grow(mw.breached[:0], windows)[:windows]
	}

	runPhase(scr, models) // prepare
	for _, mw := range models {
		ist.Shed += mw.shed
		if tr != nil {
			tr.Ingest(mw.shedBuf.Events())
		}
	}

	runPhase(scr, scr.tasks) // run
	// Drain staged trace events in deterministic task order — the same
	// order sequential execution produced them in — and flush the
	// interval to the sinks, so exports stream per interval instead of
	// accumulating a day.
	if tr != nil {
		for _, t := range scr.tasks {
			tr.Ingest(t.trace.Events())
		}
		tr.Flush()
	}

	// Tails: on the exact path each model owns a disjoint range of one
	// interval buffer, laid out in model order, which is read in place
	// three times — windows, model, interval — and never copied again.
	if !useSketch {
		total := 0
		for _, mw := range models {
			total += mw.latencies()
		}
		scr.allBuf = slices.Grow(scr.allBuf[:0], total)[:total]
		off := 0
		for _, mw := range models {
			n := mw.latencies()
			mw.lat = scr.allBuf[off : off+n]
			off += n
		}
	}
	for _, mw := range models {
		mw.phase = phaseTails
	}
	runPhase(scr, models) // tails

	// Account, in model order.
	scr.breached = slices.Grow(scr.breached[:0], windows)[:windows]
	breached := scr.breached
	clear(breached)
	if useSketch {
		armSketch(&scr.allSk)
	}
	for _, mw := range models {
		m := mw.name
		for w, b := range mw.breached {
			breached[w] = breached[w] || b
		}
		mQueries, mDrops, mHits := 0, 0, 0
		for _, sh := range mw.shards {
			mQueries += len(sh.queries)
			mDrops += sh.dropped
			mHits += sh.hits
			ist.SpillInServed += sh.remoteServed
			ist.SpillInDropped += sh.remoteDropped
		}
		ist.Queries += mQueries
		ist.Drops += mDrops
		ist.CacheHits += mHits
		if e.cacheActive {
			e.cacheFill(m, mQueries-mDrops-mHits, mHits, mQueries, stepS/sliceS)
		}
		ist.ModelP95MS[m] = mw.p95
		ist.ModelP99MS[m] = mw.p99
		// Record what admission policies may condition on next interval.
		obs := modelObs{p99MS: mw.p99}
		if mQueries > 0 {
			obs.dropFrac = float64(mDrops) / float64(mQueries)
		}
		e.prevObs[m] = obs
		if useSketch {
			scr.allSk.Merge(&mw.modelSk)
		}
	}
	if useSketch {
		ist.P50MS = scr.allSk.Quantile(50)
		ist.P95MS = scr.allSk.Quantile(95)
		ist.P99MS = scr.allSk.Quantile(99)
	} else {
		var out [3]float64
		stats.PercentilesSelect(scr.allBuf, []float64{50, 95, 99}, out[:])
		ist.P50MS, ist.P95MS, ist.P99MS = out[0], out[1], out[2]
	}
	if e.cacheActive {
		if ist.Queries > 0 {
			ist.CacheHitRate = float64(ist.CacheHits) / float64(ist.Queries)
		}
		ist.CacheWarmth = make(map[string]float64, len(names))
		for _, m := range names {
			ist.CacheWarmth[m] = e.cacheWarmth[m]
		}
	}
	for _, b := range breached {
		if b {
			ist.WindowsBreached++
		}
		if e.Scaler != nil {
			e.Scaler.ObserveWindow(b)
		}
	}
	ist.ViolationMin = stepS / 60 * float64(ist.WindowsBreached) / float64(windows)

	// Energy: every activated instance idles for the whole interval and
	// adds utilization-proportional dynamic power up to its profiled
	// provisioned budget. The same sweep yields the fleet's mean
	// channel utilization for utilization-driven scalers.
	var watts, utilSum float64
	nInsts := 0
	capW := e.powercapPerServerW(eff)
	for _, m := range names {
		for _, in := range insts[m] {
			idle := e.idleWatts(in.Type)
			peak := idle
			if entry, ok := e.Table.Get(in.Type, in.Model); ok {
				peak = math.Max(entry.PowerW, idle)
			}
			u := in.Utilization(sliceS)
			w := idle + (peak-idle)*u
			if cw, ok := capW[in.Type]; ok && w > cw {
				// The powercap is physical: whatever the workload wants,
				// the server never draws past its share of the budget.
				w = cw
			}
			watts += w
			utilSum += u
			nInsts++
		}
	}
	ist.EnergyKJ = watts * stepS / 1e3
	if uo, ok := e.Scaler.(UtilizationObserver); ok && nInsts > 0 {
		uo.ObserveUtilization(utilSum / float64(nInsts))
	}
	return ist
}

// SliceResult is ReplaySlice's accounting. LatS holds one latency per
// admitted query — in arrival order for unbatched pools, in dispatch
// order for batching pools (a batch emits its members' latencies when
// it launches).
type SliceResult struct {
	LatS    []float64
	Served  int
	Dropped int
}

// ReplaySlice routes one query stream (in arrival order) over the
// given instances with a fresh router of the given registered name —
// one shard of RunDay's replay loop, with a single unbounded
// observation window and the unclipped busy horizon, exported for
// tests and tools that want router behavior without provisioning.
// Batching instances (EnableBatching) are served through the
// dynamic-batching path, including the end-of-slice drain of forming
// batches. An unregistered router name panics: callers pass
// compile-time policy names, never user input (route user input
// through ParseRouter).
func ReplaySlice(routerName string, insts []*Instance, queries []workload.Query, seed int64) SliceResult {
	newRouter, err := RouterFactory(routerName)
	if err != nil {
		panic(err)
	}
	w := &shardWork{newRouter: newRouter, seed: seed, windowW: math.Inf(1)}
	w.reset(1, false)
	w.insts, w.queries = insts, queries
	w.run()
	return SliceResult{LatS: w.winLatS[0], Served: len(queries) - w.dropped, Dropped: w.dropped}
}

// hashString folds a string into a seed component (FNV-1a).
func hashString(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// mixSeed derives a deterministic sub-seed (splitmix64-style) so
// intervals, models and shards draw from independent streams.
func mixSeed(seed int64, vals ...int64) int64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, v := range vals {
		h ^= uint64(v) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
	}
	return int64(h >> 1)
}
