package main

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"hercules/internal/experiments"
	"hercules/internal/fleet"
)

// TestWorkloadsAtPublishedSeed sets every workload up once at
// experiments.Seed, which replays its warm-up day and the determinism
// checks, and compares the simulated day with the numbers the
// repository already publishes: the FleetDay row of BENCH_fleet.json and
// the spill row of FigRegions.
func TestWorkloadsAtPublishedSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, seed: experiments.Seed}
			if err := b.setup(1); err != nil {
				t.Fatal(err)
			}
			b.checkDeterminism()
			b.checkReferenceDay()
			if b.failed != 0 {
				t.Fatalf("%d of %d operations failed", b.failed, b.attempted)
			}
			d := b.warm
			got := fmt.Sprintf("queries %d, drops %.3f%%, spill served %d, violation %g min",
				d.TotalQueries, 100*d.DropFrac, d.SpillInServed, d.SLAViolationMin)
			want := map[string]string{
				"diurnal":          "queries 960277, drops 0.000%, spill served 0, violation 0 min",
				"regions-blackout": "queries 1125868, drops 3.025%, spill served 19441, violation 240 min",
			}[w.name]
			if want != "" && got != want {
				t.Errorf("day at seed %d: got %s, want %s", experiments.Seed, got, want)
			}
		})
	}
}

// TestReferenceCatchesModelChange replays a diurnal day whose simulated
// model differs from the workload's only in its shard count, and checks
// that the comparison with the pinned reference fails it, while a run
// at another seed still passes its reference operation.
func TestReferenceCatchesModelChange(t *testing.T) {
	b := &bench{w: &workloads[0], seed: experiments.Seed + 1}
	if err := b.setup(1); err != nil {
		t.Fatal(err)
	}
	b.checkReferenceDay()
	if b.failed != 0 {
		t.Fatalf("run at seed %d fails its reference day", b.seed)
	}
	w := workloads[0]
	w.spec = func(seed int64) fleet.Spec {
		spec := diurnalSpec(seed)
		spec.Options.Shards = 2
		return spec
	}
	fx := &fixture{w: &w, seed: experiments.Seed, table: b.fx.table}
	d, err := fx.replayOnce()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReference(d, fx); err == nil {
		t.Error("day replayed with 2 shards matches the 1-shard reference")
	} else {
		t.Log(err)
	}
}

// TestChecksCatchPerturbedDay perturbs a replayed multi-region day in
// each way the per-day checks guard: the totals check must catch every
// perturbed total, and the comparison with the warm-up day's JSON must
// catch a change the totals cannot see.
func TestChecksCatchPerturbedDay(t *testing.T) {
	b := &bench{w: &workloads[2], seed: experiments.Seed}
	if err := b.setup(1); err != nil {
		t.Fatal(err)
	}
	if _, err := checkDay(b.warm, nil, b.warmRef); err != nil {
		t.Fatalf("unperturbed day fails the checks: %v", err)
	}
	totals := map[string]func(d *fleet.DayResult){
		"global drops":       func(d *fleet.DayResult) { d.TotalDrops++ },
		"region queries":     func(d *fleet.DayResult) { d.Regions[1].TotalQueries-- },
		"interval shed":      func(d *fleet.DayResult) { d.Regions[0].Steps[3].Shed++ },
		"interval violation": func(d *fleet.DayResult) { d.Regions[0].Steps[10].ViolationMin += 1e-9 },
	}
	for name, perturb := range totals {
		var d fleet.DayResult
		if err := json.Unmarshal(b.warmRef, &d); err != nil {
			t.Fatal(err)
		}
		perturb(&d)
		if err := checkTotals(d); err == nil {
			t.Errorf("day with perturbed %s passes the totals check", name)
		}
	}
	var d fleet.DayResult
	if err := json.Unmarshal(b.warmRef, &d); err != nil {
		t.Fatal(err)
	}
	if _, err := checkDay(d, nil, b.warmRef); err != nil {
		t.Fatalf("JSON round trip of the day fails the checks: %v", err)
	}
	d.MeanP99MS = math.Nextafter(d.MeanP99MS, 0)
	if err := checkTotals(d); err != nil {
		t.Fatalf("p99 perturbation should leave the totals intact: %v", err)
	}
	if _, err := checkDay(d, nil, b.warmRef); err == nil {
		t.Error("day with perturbed p99 passes the comparison with the warm-up day")
	}
}
