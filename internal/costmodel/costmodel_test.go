package costmodel

import (
	"testing"
	"testing/quick"

	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/nmpsim"
	"hercules/internal/partition"
)

var lut = nmpsim.Default()

func cpuCost(m *model.Model, items, co, workers int, srvLabel string, useNMP bool) CPUBatchCost {
	srv := hw.ServerType(srvLabel)
	g := model.BuildGraph(m)
	all := make([]int, len(g.Ops))
	for i := range all {
		all[i] = i
	}
	return CPUBatch(DefaultParams(), srv, g, all, items, 1.0, co, workers, useNMP, lut)
}

func TestCPUBatchPositive(t *testing.T) {
	for _, m := range model.Zoo(model.Prod) {
		c := cpuCost(m, 64, 10, 2, "T2", false)
		if c.ServiceS <= 0 || c.SparseS < 0 || c.DenseS <= 0 {
			t.Errorf("%s: non-positive cost %+v", m.Name, c)
		}
		if c.CoreBusyS <= 0 || c.HostBytes <= 0 {
			t.Errorf("%s: missing accounting %+v", m.Name, c)
		}
	}
}

// CPUBatch takes its dense-phase buffers from a pool, so one buffer
// serves graphs of different sizes in turn; every evaluation must still
// equal the same evaluation in fresh buffers.
func TestCPUBatchPooledBuffersMatchFresh(t *testing.T) {
	p, srv := DefaultParams(), hw.ServerType("T2")
	zoo := model.Zoo(model.Prod)
	for round := 0; round < 3; round++ {
		for i := range zoo {
			m := zoo[(i*5+round)%len(zoo)]
			g := model.BuildGraph(m)
			dense := g.DenseOps()
			items, workers := 16<<round, 1+round
			got := CPUBatch(p, srv, g, dense, items, 1, 2, workers, false, lut)
			w := denseDurations(p, srv, g, dense, float64(items), 2, new(schedBuf))
			want := listSchedule(g, w, workers, new(schedBuf))
			if got.DenseS != want || got.FLOPs != w.totalFLOPs {
				t.Errorf("%s round %d: pooled DenseS %v FLOPs %v, fresh %v %v",
					m.Name, round, got.DenseS, got.FLOPs, want, w.totalFLOPs)
			}
		}
	}
}

func TestCPUBatchScalesWithItems(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	small := cpuCost(m, 16, 10, 2, "T2", false)
	big := cpuCost(m, 256, 10, 2, "T2", false)
	if big.ServiceS <= small.ServiceS {
		t.Fatal("bigger batches must take longer")
	}
	// Per-item cost must *fall* with batch size (overhead amortization) —
	// the data-parallelism benefit the schedulers exploit.
	if big.ServiceS/256 >= small.ServiceS/16 {
		t.Errorf("per-item cost did not amortize: %.3g vs %.3g",
			big.ServiceS/256, small.ServiceS/16)
	}
}

func TestCPUCoLocationContention(t *testing.T) {
	// More co-located threads → less memory bandwidth each → slower
	// sparse phase for memory-bound models.
	m := model.DLRMRMC1(model.Prod)
	solo := cpuCost(m, 128, 1, 1, "T2", false)
	crowded := cpuCost(m, 128, 20, 1, "T2", false)
	if crowded.SparseS <= solo.SparseS {
		t.Fatalf("contention must slow sparse: %.4g vs %.4g", crowded.SparseS, solo.SparseS)
	}
}

func TestOpWorkersSpeedDenseUntilChainBound(t *testing.T) {
	m := model.MTWnD(model.Prod) // 5 parallel towers: real op-parallelism
	c1 := cpuCost(m, 256, 4, 1, "T2", false)
	c2 := cpuCost(m, 256, 4, 2, "T2", false)
	c4 := cpuCost(m, 256, 4, 4, "T2", false)
	if !(c2.DenseS < c1.DenseS && c4.DenseS < c2.DenseS) {
		t.Fatalf("parallel towers must speed up: %.4g %.4g %.4g", c1.DenseS, c2.DenseS, c4.DenseS)
	}
	// DLRM-RMC1 is one chain: speedup from workers must be marginal.
	r := model.DLRMRMC1(model.Prod)
	r1 := cpuCost(r, 256, 4, 1, "T2", false)
	r4 := cpuCost(r, 256, 4, 4, "T2", false)
	if r1.DenseS/r4.DenseS > 1.5 {
		t.Errorf("RMC1 dense chain gained %.2f× from 4 workers, want <1.5×", r1.DenseS/r4.DenseS)
	}
}

func TestFig5IdleFractionGrowsWithWorkers(t *testing.T) {
	p := DefaultParams()
	srv := hw.ServerType("T2")
	for _, m := range model.Zoo(model.Prod) {
		g := model.BuildGraph(m)
		prev := -1.0
		for _, w := range []int{1, 2, 3, 4} {
			idle := OpWorkerIdleFraction(p, srv, g, 256, w)
			if idle < 0 || idle > 1 {
				t.Fatalf("%s: idle fraction %v outside [0,1]", m.Name, idle)
			}
			if idle < prev-1e-9 {
				t.Errorf("%s: idle fraction not monotone in workers", m.Name)
			}
			prev = idle
		}
		if one := OpWorkerIdleFraction(p, srv, g, 256, 1); one > 1e-9 {
			t.Errorf("%s: single worker must have zero idle, got %v", m.Name, one)
		}
	}
}

func TestFig5IdleRange(t *testing.T) {
	// Paper: idle cycles range from 25% to 74% with 2 to 4 workers.
	p := DefaultParams()
	srv := hw.ServerType("T2")
	minIdle, maxIdle := 1.0, 0.0
	for _, m := range model.Zoo(model.Prod) {
		g := model.BuildGraph(m)
		for _, w := range []int{2, 3, 4} {
			idle := OpWorkerIdleFraction(p, srv, g, 256, w)
			if idle < minIdle {
				minIdle = idle
			}
			if idle > maxIdle {
				maxIdle = idle
			}
		}
	}
	if maxIdle < 0.5 {
		t.Errorf("max idle %.2f, want deep idling for chain-bound models", maxIdle)
	}
	if minIdle > 0.45 {
		t.Errorf("min idle %.2f, want parallel models to stay busy", minIdle)
	}
}

func TestNMPAcceleratesPooledModels(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	ddr := cpuCost(m, 128, 8, 2, "T3", false)
	nmp := cpuCost(m, 128, 8, 2, "T3", true)
	if nmp.SparseS >= ddr.SparseS {
		t.Fatalf("NMP must speed pooled gathers: %.4g vs %.4g", nmp.SparseS, ddr.SparseS)
	}
	if nmp.NMPBytes <= 0 {
		t.Error("NMP bytes must be accounted")
	}
	if nmp.HostBytes >= ddr.HostBytes {
		t.Error("NMP must relieve host channel traffic")
	}
}

func TestNMPUselessForOneHot(t *testing.T) {
	// Fig. 15: NMP behaves like plain DRAM for MT-WnD/DIN/DIEN
	// (lookup-only, no Gather-Reduce).
	for _, name := range []string{"MT-WnD", "DIN", "DIEN"} {
		m, _ := model.ByName(name, model.Prod)
		ddr := cpuCost(m, 128, 8, 2, "T3", false)
		nmp := cpuCost(m, 128, 8, 2, "T3", true)
		if nmp.ServiceS != ddr.ServiceS {
			t.Errorf("%s: NMP changed service time (%.4g vs %.4g) despite no pooling",
				name, nmp.ServiceS, ddr.ServiceS)
		}
		if nmp.NMPBytes != 0 {
			t.Errorf("%s: NMP bytes %v for a lookup-only model", name, nmp.NMPBytes)
		}
	}
}

func TestNMPIgnoredWithoutHardware(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	plain := cpuCost(m, 128, 8, 2, "T2", false)
	asked := cpuCost(m, 128, 8, 2, "T2", true) // T2 has no NMP DIMMs
	if plain.ServiceS != asked.ServiceS || asked.NMPBytes != 0 {
		t.Fatal("useNMP on a non-NMP server must be a no-op")
	}
}

// gpuCost computes a full-model-resident GPU batch cost: all indices
// cross PCIe and all gathers hit HBM.
func gpuCost(m *model.Model, items int) GPUBatchCost {
	g := model.BuildGraph(m)
	pl := partition.FullModelAccel(partition.BuildPlan(m, 1<<62))
	return GPUBatch(DefaultParams(), hw.V100(), g, g.DenseOps(), items, 1.0,
		pl.PCIeBytesPerItem, pl.GPUGatherBytesPerItem, len(m.Tables))
}

func TestGPUBatchPositive(t *testing.T) {
	for _, m := range model.Zoo(model.Small) {
		c := gpuCost(m, 512)
		if c.LoadS <= 0 || c.ComputeS <= 0 || c.PCIeBytes <= 0 {
			t.Errorf("%s: bad GPU cost %+v", m.Name, c)
		}
	}
}

func TestFig7LoadFractionByModel(t *testing.T) {
	// RMC3 is data-loading dominated (65–83%); MT-WnD and DIN keep the
	// GPU busier.
	frac := func(name string) float64 {
		m, _ := model.ByName(name, model.Small)
		c := gpuCost(m, 1000)
		return c.LoadS / (c.LoadS + c.ComputeS)
	}
	rmc3, wnd, din := frac("DLRM-RMC3"), frac("MT-WnD"), frac("DIN")
	if rmc3 < 0.55 {
		t.Errorf("RMC3 load fraction %.2f, want ≥0.55 (paper: 65–83%%)", rmc3)
	}
	if wnd > 0.35 {
		t.Errorf("MT-WnD load fraction %.2f, want small", wnd)
	}
	if din > 0.5 {
		t.Errorf("DIN load fraction %.2f, want mitigated by compute", din)
	}
}

func TestGPUFusionAmortizesLaunches(t *testing.T) {
	// DIEN's per-step GRU kernels make small batches launch-bound; per
	// item cost must fall steeply with fusion.
	m := model.DIEN(model.Small)
	small := gpuCost(m, 64)
	big := gpuCost(m, 4096)
	perItemSmall := (small.LoadS + small.ComputeS) / 64
	perItemBig := (big.LoadS + big.ComputeS) / 4096
	if perItemBig >= perItemSmall/3 {
		t.Errorf("fusion gain only %.1f×, want ≥3× for DIEN",
			perItemSmall/perItemBig)
	}
}

func TestGPUKernelCounts(t *testing.T) {
	dien := gpuCost(model.DIEN(model.Small), 256)
	rmc1 := gpuCost(model.DLRMRMC1(model.Small), 256)
	if dien.Kernels < 100 {
		t.Errorf("DIEN kernels = %v, want per-step launches", dien.Kernels)
	}
	if rmc1.Kernels > 30 {
		t.Errorf("RMC1 kernels = %v, want one per op", rmc1.Kernels)
	}
}

func TestGPUComputeMonotoneInItems(t *testing.T) {
	m := model.MTWnD(model.Small)
	f := func(a, b uint16) bool {
		x, y := int(a%4096)+1, int(b%4096)+1
		if x > y {
			x, y = y, x
		}
		cx, cy := gpuCost(m, x), gpuCost(m, y)
		return cx.ComputeS <= cy.ComputeS+1e-12 && cx.LoadS <= cy.LoadS+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCPUServiceMonotoneInItems(t *testing.T) {
	m := model.DLRMRMC2(model.Prod)
	f := func(a, b uint16) bool {
		x, y := int(a%1024)+1, int(b%1024)+1
		if x > y {
			x, y = y, x
		}
		cx := cpuCost(m, x, 10, 2, "T2", false)
		cy := cpuCost(m, y, 10, 2, "T2", false)
		return cx.ServiceS <= cy.ServiceS+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSparseScaleScalesSparsePhase(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	srv := hw.ServerType("T2")
	g := model.BuildGraph(m)
	all := make([]int, len(g.Ops))
	for i := range all {
		all[i] = i
	}
	lo := CPUBatch(DefaultParams(), srv, g, all, 128, 0.5, 10, 2, false, lut)
	hi := CPUBatch(DefaultParams(), srv, g, all, 128, 2.0, 10, 2, false, lut)
	if hi.SparseS <= lo.SparseS {
		t.Fatal("sparse scale must scale the sparse phase")
	}
	if hi.DenseS != lo.DenseS {
		t.Fatal("sparse scale must not affect the dense phase")
	}
}

func TestSubgraphCostsAdditive(t *testing.T) {
	// Sparse-only + dense-only phases should roughly compose to the
	// full-graph cost (modulo the per-batch dispatch overhead).
	p := DefaultParams()
	srv := hw.ServerType("T2")
	m := model.DLRMRMC1(model.Prod)
	g := model.BuildGraph(m)
	all := make([]int, len(g.Ops))
	for i := range all {
		all[i] = i
	}
	full := CPUBatch(p, srv, g, all, 128, 1, 10, 2, false, lut)
	sparse := CPUBatch(p, srv, g, g.SparseOps(), 128, 1, 10, 2, false, lut)
	dense := CPUBatch(p, srv, g, g.DenseOps(), 128, 1, 10, 2, false, lut)
	sum := sparse.SparseS + dense.DenseS
	whole := full.SparseS + full.DenseS
	if diff := sum - whole; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("phases not additive: %.6g vs %.6g", sum, whole)
	}
}

func TestDefaultsHaveSaneMagnitudes(t *testing.T) {
	// Guard against calibration drift: RMC1 batch-128 on 10×2 T2 threads
	// should serve in single-digit milliseconds (the paper's SLA targets
	// are 20–100 ms and per-server QPS in the hundreds).
	c := cpuCost(model.DLRMRMC1(model.Prod), 128, 10, 2, "T2", false)
	if c.ServiceS < 500e-6 || c.ServiceS > 50e-3 {
		t.Errorf("RMC1 batch service %.4g s outside plausible band", c.ServiceS)
	}
}
