package main

import (
	"bytes"
	"fmt"

	"hercules/internal/experiments"
	"hercules/internal/fleet"
)

// reference pins each workload's simulated day at experiments.Seed. The
// simulated model is deterministic, so every run replays the day at
// that seed once, outside the timed windows, and a day that differs in
// any pinned figure is a failed operation: a faster replay must not
// change what it simulates. The relative bounds of the simulated
// end-to-end metrics cannot do this alone: those metrics differ between
// seeds by more than one violated interval or a few dropped queries
// move them, so their bounds cannot be tight (NOTES.md).
var reference = map[string]string{
	"diurnal": "queries 960277, drops 0, shed 0, violation 0 min, spill served 0, spill dropped 0, " +
		"p99 29.73079238885064 ms, servers 22.666666666666668, provisioned 246233.386685002 kJ",
	"replay-batched": "queries 960277, drops 0, shed 0, violation 0 min, spill served 0, spill dropped 0, " +
		"p99 27.353327149250333 ms, servers 22.666666666666668, provisioned 246233.386685002 kJ",
	"regions-blackout": "queries 1125868, drops 34060, shed 0, violation 240 min, spill served 19441, spill dropped 2830, " +
		"p99 33.620155120589025 ms, servers 52.416666666666664, provisioned 564582.9547401629 kJ",
}

// simSummary renders the simulated figures of a day that reference
// pins, every float in its shortest exact form.
func simSummary(d fleet.DayResult, fx *fixture) string {
	sim := simMetrics(d, fx)
	return fmt.Sprintf("queries %d, drops %d, shed %d, violation %v min, spill served %d, spill dropped %d, p99 %v ms, servers %v, provisioned %v kJ",
		d.TotalQueries, d.TotalDrops, d.TotalShed, d.SLAViolationMin, d.SpillInServed, d.SpillInDropped,
		d.MeanP99MS, sim.serversMean, d.ProvisionedEnergyKJ)
}

// checkReference compares a workload's day at experiments.Seed with the
// pinned reference.
func checkReference(d fleet.DayResult, fx *fixture) error {
	if got, want := simSummary(d, fx), reference[fx.w.name]; got != want {
		return fmt.Errorf("day at seed %d differs from the pinned reference:\n  got  %s\n  want %s", experiments.Seed, got, want)
	}
	return nil
}

// checkReferenceDay is the run's reference operation. A run at
// experiments.Seed compares its own warm-up day; any other run sets the
// workload up at that seed on its calibrated table and replays one
// checked day.
func (b *bench) checkReferenceDay() {
	id := b.tr.open("check.reference_day", 0)
	defer b.tr.close(id)
	if b.seed == experiments.Seed {
		b.op("reference day", checkReference(b.warm, b.fx))
		return
	}
	fx := &fixture{w: b.w, seed: experiments.Seed, table: b.fx.table}
	d, err := fx.replayOnce()
	if err == nil {
		_, err = checkDay(d, nil, nil)
	}
	if err == nil {
		err = checkReference(d, fx)
	}
	b.op("reference day", err)
}

// replayOnce records and ingests the fixture's trace if its workload
// replays one, then replays one day on a freshly built engine.
func (fx *fixture) replayOnce() (fleet.DayResult, error) {
	if fx.w.recorded {
		raw, err := fx.record()
		if err != nil {
			return fleet.DayResult{}, err
		}
		if fx.trace, err = fleet.ReadTrace(bytes.NewReader(raw)); err != nil {
			return fleet.DayResult{}, fmt.Errorf("ingest: %w", err)
		}
	}
	r, err := fx.build(variant{})
	if err != nil {
		return fleet.DayResult{}, err
	}
	return r.run()
}
