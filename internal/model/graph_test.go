package model

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestBuildGraphAllModels(t *testing.T) {
	for _, m := range Zoo(Prod) {
		g := BuildGraph(m)
		if len(g.Ops) == 0 {
			t.Fatalf("%s: empty graph", m.Name)
		}
		// IDs must be dense and self-consistent.
		for i, op := range g.Ops {
			if op.ID != i {
				t.Errorf("%s: op %d has ID %d", m.Name, i, op.ID)
			}
			for _, dep := range op.DependsOn {
				if dep < 0 || dep >= i {
					t.Errorf("%s: op %d depends on %d (must be earlier)", m.Name, i, dep)
				}
			}
		}
	}
}

func TestGraphSparseDenseSplit(t *testing.T) {
	for _, m := range Zoo(Prod) {
		g := BuildGraph(m)
		sparse, dense := g.SparseOps(), g.DenseOps()
		if len(sparse) != len(m.Tables) {
			t.Errorf("%s: sparse ops %d != tables %d", m.Name, len(sparse), len(m.Tables))
		}
		if len(sparse)+len(dense) != len(g.Ops) {
			t.Errorf("%s: partition does not cover graph", m.Name)
		}
		for _, id := range sparse {
			if !g.Ops[id].Kind.IsSparse() {
				t.Errorf("%s: op %d in sparse set is %v", m.Name, id, g.Ops[id].Kind)
			}
			if len(g.Ops[id].DependsOn) != 0 {
				t.Errorf("%s: sparse ops must be independent (no deps)", m.Name)
			}
		}
	}
}

func TestGraphCostsPositive(t *testing.T) {
	for _, m := range Zoo(Prod) {
		g := BuildGraph(m)
		for _, op := range g.Ops {
			if op.BytesPerItem < 0 || op.FLOPsPerItem < 0 {
				t.Errorf("%s/%s: negative cost", m.Name, op.Name)
			}
			if op.Kind.IsSparse() && op.IndexBytesPerItem <= 0 {
				t.Errorf("%s/%s: sparse op without index bytes", m.Name, op.Name)
			}
			if op.Kind == OpFC && op.FLOPsPerItem <= 0 {
				t.Errorf("%s/%s: FC without FLOPs", m.Name, op.Name)
			}
		}
	}
}

func TestGraphTotalsMatchSummary(t *testing.T) {
	// Graph dense FLOPs should be within a small factor of the analytic
	// summary (graph includes reduction adds that the summary folds in).
	for _, m := range Zoo(Prod) {
		g := BuildGraph(m)
		flops, _ := g.TotalWork(g.DenseOps())
		s := m.Summarize()
		ratio := flops / s.FLOPsPerItem
		if ratio < 0.8 || ratio > 1.3 {
			t.Errorf("%s: graph dense FLOPs %.3g vs summary %.3g (ratio %.2f)",
				m.Name, flops, s.FLOPsPerItem, ratio)
		}
	}
}

func TestCriticalPathBoundsTotals(t *testing.T) {
	for _, m := range Zoo(Prod) {
		g := BuildGraph(m)
		dense := g.DenseOps()
		total, _ := g.TotalWork(dense)
		crit := g.CriticalPathFLOPs(dense)
		if crit <= 0 {
			t.Errorf("%s: zero critical path", m.Name)
		}
		if crit > total+1e-9 {
			t.Errorf("%s: critical path %.3g exceeds total %.3g", m.Name, crit, total)
		}
	}
}

func TestCriticalPathDominatedByChain(t *testing.T) {
	// DLRM-RMC1 dense net is essentially one chain (bottom → interaction
	// → predict): the critical path should be ≥90% of total dense work,
	// which is exactly why extra op-workers idle (Fig. 5).
	m := DLRMRMC1(Prod)
	g := BuildGraph(m)
	dense := g.DenseOps()
	total, _ := g.TotalWork(dense)
	crit := g.CriticalPathFLOPs(dense)
	if crit/total < 0.9 {
		t.Errorf("RMC1 chain fraction = %.2f, want ≥0.9", crit/total)
	}
}

func TestMultiTaskWidensGraph(t *testing.T) {
	// MT-WnD's 5 towers should make its critical path a small fraction of
	// total dense work (towers run in parallel).
	m := MTWnD(Prod)
	g := BuildGraph(m)
	dense := g.DenseOps()
	total, _ := g.TotalWork(dense)
	crit := g.CriticalPathFLOPs(dense)
	if crit/total > 0.5 {
		t.Errorf("MT-WnD chain fraction = %.2f, want <0.5 (parallel towers)", crit/total)
	}
}

func TestTopoOrderValid(t *testing.T) {
	for _, m := range Zoo(Prod) {
		g := BuildGraph(m)
		all := make([]int, len(g.Ops))
		for i := range all {
			all[i] = i
		}
		order := g.TopoOrder(all)
		if len(order) != len(all) {
			t.Fatalf("%s: topo order dropped ops (%d of %d)", m.Name, len(order), len(all))
		}
		pos := make(map[int]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for _, id := range order {
			for _, dep := range g.Ops[id].DependsOn {
				if pos[dep] >= pos[id] {
					t.Errorf("%s: dep %d not before op %d", m.Name, dep, id)
				}
			}
		}
	}
}

func TestTopoOrderSubset(t *testing.T) {
	g := BuildGraph(DLRMRMC1(Prod))
	dense := g.DenseOps()
	order := g.TopoOrder(dense)
	if len(order) != len(dense) {
		t.Fatalf("subset topo order wrong length")
	}
}

// One TopoBuf carried across graphs of different sizes and op subsets
// must give every call the order a fresh buffer gives, and a warm
// buffer must not allocate.
func TestTopoOrderBufReuse(t *testing.T) {
	var buf TopoBuf
	for round := 0; round < 2; round++ {
		for _, m := range Zoo(Prod) {
			g := BuildGraph(m)
			all := make([]int, len(g.Ops))
			for i := range all {
				all[i] = i
			}
			for _, ids := range [][]int{g.DenseOps(), g.SparseOps(), all} {
				want := g.TopoOrder(ids)
				if got := g.TopoOrderBuf(ids, &buf); !slices.Equal(got, want) {
					t.Fatalf("%s: reused buffer gave %v, fresh %v", m.Name, got, want)
				}
			}
		}
	}
	g := BuildGraph(DLRMRMC1(Prod))
	dense := g.DenseOps()
	g.TopoOrderBuf(dense, &buf)
	if n := testing.AllocsPerRun(100, func() { g.TopoOrderBuf(dense, &buf) }); n != 0 {
		t.Errorf("warm TopoOrderBuf allocates %v times per call", n)
	}
}

func TestGRUIsSequential(t *testing.T) {
	g := BuildGraph(DIEN(Prod))
	found := false
	for _, op := range g.Ops {
		if op.Kind == OpGRU {
			found = true
			if !op.Sequential {
				t.Error("GRU op must be marked sequential")
			}
		}
	}
	if !found {
		t.Fatal("DIEN graph must contain a GRU op")
	}
}

func TestDINHasAttention(t *testing.T) {
	g := BuildGraph(DIN(Prod))
	found := false
	for _, op := range g.Ops {
		if op.Kind == OpAttention {
			found = true
			if len(op.DependsOn) == 0 {
				t.Error("attention must depend on the behaviour gather")
			}
		}
	}
	if !found {
		t.Fatal("DIN graph must contain an attention op")
	}
}

func TestInteractionOnlyForDLRM(t *testing.T) {
	for _, m := range Zoo(Prod) {
		g := BuildGraph(m)
		has := false
		for _, op := range g.Ops {
			if op.Kind == OpInteraction {
				has = true
			}
		}
		wantInteraction := m.Interaction
		if has != wantInteraction {
			t.Errorf("%s: interaction op = %v, want %v", m.Name, has, wantInteraction)
		}
	}
}

func TestOpKindString(t *testing.T) {
	kinds := []OpKind{OpEmbedPool, OpEmbedLookup, OpFC, OpAttention, OpGRU, OpInteraction, OpConcat, OpActivation}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate string %q", int(k), s)
		}
		seen[s] = true
	}
	if OpKind(99).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestQuickCriticalPathSubadditive(t *testing.T) {
	// Property: for any subset of dense ops of RMC2's graph, the critical
	// path never exceeds total work and is never negative.
	g := BuildGraph(DLRMRMC2(Prod))
	dense := g.DenseOps()
	f := func(mask uint16) bool {
		var ids []int
		for i, id := range dense {
			if mask&(1<<(i%16)) != 0 {
				ids = append(ids, id)
			}
		}
		total, _ := g.TotalWork(ids)
		crit := g.CriticalPathFLOPs(ids)
		return crit >= 0 && crit <= total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
