package main

import (
	"bytes"
	"fmt"

	"hercules/internal/cluster"
	"hercules/internal/experiments"
	"hercules/internal/fleet"
	"hercules/internal/model"
	"hercules/internal/profiler"
	"hercules/internal/telemetry"
)

// shards pins Options.Shards in every workload spec. Zero would mean
// runtime.NumCPU(), and the shard count is part of the simulated model:
// it partitions each model's pool and traffic, so the simulated metrics
// would differ between machines.
const shards = 1

// probeSample is the 1-in-N sampling period of the traced run's
// instrumentation, and of replay-batched's own tracer.
const probeSample = 64

// workloadDef is one named benchmark input. NOTES.md says why each exists.
type workloadDef struct {
	name string
	// spec returns the workload's pinned run spec at the seed.
	spec func(seed int64) fleet.Spec
	// recorded workloads replay an arrival trace that setup records from
	// the diurnal spec at the same seed and ingests with fleet.ReadTrace.
	recorded bool
	// multi workloads replay through fleet.NewMultiEngine.
	multi bool
}

var workloads = []workloadDef{
	{name: "diurnal", spec: diurnalSpec},
	{name: "replay-batched", spec: batchedSpec, recorded: true},
	{name: "regions-blackout", spec: regionsSpec, multi: true},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func diurnalSpec(seed int64) fleet.Spec {
	spec := experiments.FleetSpec(fleet.PowerOfTwo, "hercules", seed)
	spec.Options.Shards = shards
	return spec
}

func batchedSpec(seed int64) fleet.Spec {
	spec := experiments.FleetSpec(fleet.WeightedHetero, "hercules", seed)
	spec.Options.Shards = shards
	spec.Options.MaxBatch = 16
	spec.Options.BatchWaitS = 0.002
	spec.Options.TraceSample = probeSample
	return spec
}

func regionsSpec(seed int64) fleet.Spec {
	spec := experiments.RegionsSpec(fleet.GeoSpill, seed)
	spec.Options.Shards = shards
	return spec
}

// calibrate builds a fresh efficiency table for the fleet models. The
// table is a property of the hardware, not of the traffic, so it is
// calibrated at experiments.Seed whatever the workload seed; a fresh
// table also gets fresh (cold) shared service-time grids.
func calibrate() (*profiler.Table, error) {
	ms := make([]*model.Model, 0, len(experiments.FleetModels))
	for _, name := range experiments.FleetModels {
		m, err := model.ByName(name, model.Prod)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return fleet.CalibrateTable(ms, experiments.FleetFleet().Types, experiments.Seed)
}

// fixture is what every day of one workload shares: the calibrated
// table and, for recorded workloads, the ingested arrival trace.
type fixture struct {
	w     *workloadDef
	seed  int64
	table *profiler.Table
	trace *fleet.TraceSource
}

// record replays one diurnal day at the fixture's seed through the
// engine's own record path (every query, arrival and offer events only,
// into memory) and returns the NDJSON bytes.
func (fx *fixture) record() ([]byte, error) {
	spec := diurnalSpec(fx.seed)
	spec.Options.TraceSample = 1
	eng, err := fleet.NewEngine(spec, fleet.WithTable(fx.table))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	eng.Tracer.AddSink(telemetry.NewNDJSONWriter(&buf).Restrict(telemetry.KindArrival, telemetry.KindOffer))
	if _, err := eng.RunDay(experiments.FleetWorkloads(fx.table, fx.seed)); err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	if err := eng.Tracer.Close(); err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	return buf.Bytes(), nil
}

// variant selects how one day's engine is instrumented.
type variant struct {
	// sequential replays without the engine's worker pool.
	sequential bool
	// noWorkloadTrace drops the workload's own tracer.
	noWorkloadTrace bool
	// probe, when set, receives the benchmark's sampled trace events.
	probe telemetry.Sink
	// observer, when set, is registered after every other observer.
	observer fleet.Observer
}

// part is one region's engine of a built replay, with the workloads it
// replays: what the layer micro-replays need to rebuild its traffic.
type part struct {
	eng *fleet.Engine
	ws  []cluster.Workload
}

// replay is one freshly built engine ready to replay one day.
type replay struct {
	run   func() (fleet.DayResult, error)
	parts []part
	// events counts the workload's own trace traffic (nil when it has
	// none).
	events *telemetry.CountSink
}

// build assembles a fresh engine for one day. Engines are built per day
// because a reused MultiEngine carries its autoscaler's trigger count
// into the next day's result.
func (fx *fixture) build(v variant) (*replay, error) {
	spec := fx.w.spec(fx.seed)
	spec.Options.Sequential = v.sequential
	if v.noWorkloadTrace {
		spec.Options.TraceSample = 0
	}
	ownTrace := spec.Options.TraceSample > 0
	if v.probe != nil && !ownTrace {
		spec.Options.TraceSample = probeSample
	}
	opts := []fleet.Option{fleet.WithTable(fx.table)}
	if fx.trace != nil {
		opts = append(opts, fleet.WithTraceSource(fx.trace),
			fleet.WithObserver(fleet.NewMetricsObserver(telemetry.NewRegistry())))
	}
	if v.observer != nil {
		opts = append(opts, fleet.WithObserver(v.observer))
	}
	r := &replay{}
	var engines []*fleet.Engine
	if fx.w.multi {
		me, err := fleet.NewMultiEngine(spec, opts...)
		if err != nil {
			return nil, err
		}
		wss := me.Workloads()
		for i, eng := range me.Engines {
			r.parts = append(r.parts, part{eng: eng, ws: wss[i]})
		}
		engines = me.Engines
		r.run = func() (fleet.DayResult, error) { return me.RunDay(wss) }
	} else {
		eng, err := fleet.NewEngine(spec, opts...)
		if err != nil {
			return nil, err
		}
		ws := eng.Workloads()
		if fx.trace == nil {
			ws = experiments.FleetWorkloads(fx.table, fx.seed)
		}
		r.parts = []part{{eng: eng, ws: ws}}
		engines = []*fleet.Engine{eng}
		r.run = func() (fleet.DayResult, error) { return eng.RunDay(ws) }
	}
	var tracers []*telemetry.Tracer
	for _, eng := range engines {
		if eng.Tracer == nil {
			continue
		}
		if ownTrace {
			if r.events == nil {
				r.events = &telemetry.CountSink{}
			}
			eng.Tracer.AddSink(r.events)
		}
		if v.probe != nil {
			eng.Tracer.AddSink(v.probe)
		}
		tracers = append(tracers, eng.Tracer)
	}
	run := r.run
	r.run = func() (fleet.DayResult, error) {
		d, err := run()
		for _, t := range tracers {
			if cerr := t.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("close tracer: %w", cerr)
			}
		}
		return d, err
	}
	return r, nil
}

// regionDays returns the per-engine results of a day, in part order.
func regionDays(d fleet.DayResult) []fleet.DayResult {
	if len(d.Regions) > 0 {
		return d.Regions
	}
	return []fleet.DayResult{d}
}
