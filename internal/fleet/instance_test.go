package fleet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hercules/internal/stats"
)

// refOutstanding is Outstanding as it was before the due cache: it
// launches a due forming batch and pops finished completions on every
// call. It reads nothing but the queue state, so it is the oracle the
// cached fast path must agree with.
func refOutstanding(in *Instance, now float64) int {
	if len(in.pendArr) > 0 {
		if launch := math.Max(in.pendOpen+in.BatchWaitS, in.free[0]); launch <= now {
			in.emitted = in.dispatchPending(launch, in.emitted)
		}
	}
	h := in.comps
	for len(h) > 0 && h[0] <= now {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		siftDown(h, 0)
	}
	in.comps = h
	return len(h) + len(in.pendArr)
}

// refArrive is arrive with its admission check on refOutstanding.
func refArrive(in *Instance, now float64, size int, scale float64) (startAt, doneAt float64, dropped bool) {
	if refOutstanding(in, now) >= in.Concurrency+in.QueueCap {
		in.Dropped++
		return 0, 0, true
	}
	s := in.svc(size, scale)
	if math.IsInf(s, 0) || s <= 0 {
		in.Dropped++
		return 0, 0, true
	}
	start := now
	if in.free[0] > now {
		start = in.free[0]
	}
	done := start + s
	in.free[0] = done
	siftDown(in.free, 0)
	in.addBusy(start, done)
	in.comps = append(in.comps, done)
	siftUp(in.comps, len(in.comps)-1)
	in.Served++
	return start, done, false
}

// refArriveBatched is ArriveBatched with its admission check on
// refOutstanding and its launch instant from math.Max.
func refArriveBatched(in *Instance, id int64, now float64, size int, scale float64, out []Completion) ([]Completion, bool) {
	out = in.drainEmitted(out)
	if len(in.pendArr) > 0 {
		if launch := math.Max(in.pendOpen+in.BatchWaitS, in.free[0]); launch <= now {
			out = in.dispatchPending(launch, out)
		}
	}
	if refOutstanding(in, now) >= max(in.Concurrency, in.MaxBatch)+in.QueueCap {
		in.Dropped++
		return out, true
	}
	s := in.svc(size, scale)
	if math.IsInf(s, 0) || s <= 0 {
		in.Dropped++
		return out, true
	}
	if len(in.pendArr) == 0 {
		in.pendOpen = now
	}
	in.pendID = append(in.pendID, id)
	in.pendArr = append(in.pendArr, now)
	in.pendSvc = append(in.pendSvc, s)
	if len(in.pendArr) >= in.MaxBatch {
		out = in.dispatchPending(now, out)
	}
	return out, false
}

// refFlushPending is FlushPending with its launch instant from math.Max.
func refFlushPending(in *Instance, out []Completion) []Completion {
	out = in.drainEmitted(out)
	if len(in.pendArr) == 0 {
		return out
	}
	return in.dispatchPending(math.Max(in.pendOpen+in.BatchWaitS, in.free[0]), out)
}

// sameInstanceState reports the first field in which the two instances'
// replay state differs, or "" when heaps, forming batch, buffered
// completions and counters are identical element for element.
func sameInstanceState(a, b *Instance) string {
	switch {
	case !slices.Equal(a.comps, b.comps):
		return fmt.Sprintf("comps %v vs %v", a.comps, b.comps)
	case !slices.Equal(a.free, b.free):
		return fmt.Sprintf("free %v vs %v", a.free, b.free)
	case !slices.Equal(a.pendID, b.pendID) || !slices.Equal(a.pendArr, b.pendArr) ||
		!slices.Equal(a.pendSvc, b.pendSvc) || a.pendOpen != b.pendOpen:
		return fmt.Sprintf("forming batch %v@%v vs %v@%v", a.pendArr, a.pendOpen, b.pendArr, b.pendOpen)
	case !slices.Equal(a.emitted, b.emitted):
		return fmt.Sprintf("emitted %v vs %v", a.emitted, b.emitted)
	case a.busyS != b.busyS:
		return fmt.Sprintf("busyS %v vs %v", a.busyS, b.busyS)
	case a.Served != b.Served || a.Dropped != b.Dropped:
		return fmt.Sprintf("served/dropped %d/%d vs %d/%d", a.Served, a.Dropped, b.Served, b.Dropped)
	}
	return ""
}

// nextChange is the earliest instant at which the instance's
// outstanding count can change, from its state alone.
func nextChange(in *Instance) float64 {
	d := math.Inf(1)
	if len(in.comps) > 0 {
		d = in.comps[0]
	}
	if len(in.pendArr) > 0 {
		d = math.Min(d, math.Max(in.pendOpen+in.BatchWaitS, in.free[0]))
	}
	return d
}

// TestOutstandingFastPathMatchesReference drives pairs of identical
// instances — one through the cached due fast path, one through the
// reference bodies above — with the same seeded arrivals, router probes
// at arbitrary and repeated instants, end-of-slice flushes and slice
// resets. Every step must return the same counts and completions and
// leave the same heaps, and the cached due instant must equal the
// state's next change: a late one would hide a completion or a launch,
// an early one would send idle inspections down the slow path.
func TestOutstandingFastPathMatchesReference(t *testing.T) {
	eff := []float64{1, 1, 0.8, 0.7, 0.6}
	// Size 0 prices a query at zero service, which the instance rejects.
	svc := func(size int, scale float64) float64 { return 0.0004 * float64(size) * scale }
	for _, batch := range []int{1, 4} {
		for _, conc := range []int{1, 3} {
			t.Run(fmt.Sprintf("batch%d/c%d", batch, conc), func(t *testing.T) {
				fast := NewInstance(0, "T2", "DLRM-RMC1", 100, conc, 2, svc)
				ref := NewInstance(0, "T2", "DLRM-RMC1", 100, conc, 2, svc)
				if batch > 1 {
					fast.EnableBatching(batch, 0.002, eff)
					ref.EnableBatching(batch, 0.002, eff)
				}
				rng := stats.NewRand(int64(7 + 10*batch + conc))
				now := 0.0
				served, dropped := 0, 0
				var outA, outB []Completion
				for step := 0; step < 20000; step++ {
					var what string
					switch op := rng.Intn(100); {
					case op < 40:
						// A router probe: at the arrival clock, ahead of or
						// behind it, or exactly at the next completion or
						// launch, where the boundary is inclusive.
						at := now
						switch rng.Intn(5) {
						case 0:
							at += rng.Float64() * 0.01
						case 1:
							at -= rng.Float64() * 0.005
						case 2:
							if next := nextChange(ref); !math.IsInf(next, 1) {
								at = next
							}
						}
						what = fmt.Sprintf("Outstanding(%v)", at)
						if a, b := fast.Outstanding(at), refOutstanding(ref, at); a != b {
							t.Fatalf("step %d %s: %d, reference %d", step, what, a, b)
						}
					case op < 85:
						now += rng.ExpFloat64() * 0.0008
						size, scale := rng.Intn(6), 0.5+rng.Float64()
						if batch > 1 && rng.Intn(8) > 0 {
							what = fmt.Sprintf("ArriveBatched(%v)", now)
							var dropA, dropB bool
							outA, dropA = fast.ArriveBatched(int64(step), now, size, scale, outA[:0])
							outB, dropB = refArriveBatched(ref, int64(step), now, size, scale, outB[:0])
							if dropA != dropB || !slices.Equal(outA, outB) {
								t.Fatalf("step %d %s: drop %v %v, reference drop %v %v", step, what, dropA, outA, dropB, outB)
							}
						} else {
							what = fmt.Sprintf("arrive(%v)", now)
							sa, da, dropA := fast.arrive(now, size, scale)
							sb, db, dropB := refArrive(ref, now, size, scale)
							if sa != sb || da != db || dropA != dropB {
								t.Fatalf("step %d %s: %v %v %v, reference %v %v %v", step, what, sa, da, dropA, sb, db, dropB)
							}
						}
					case op < 95:
						what = "FlushPending"
						outA = fast.FlushPending(outA[:0])
						outB = refFlushPending(ref, outB[:0])
						if !slices.Equal(outA, outB) {
							t.Fatalf("step %d %s: %v, reference %v", step, what, outA, outB)
						}
					default:
						what = "ResetSlice"
						served, dropped = served+fast.Served, dropped+fast.Dropped
						horizon := rng.Float64() * 0.5
						fast.ResetSlice(horizon)
						ref.ResetSlice(horizon)
						now = 0
					}
					if diff := sameInstanceState(fast, ref); diff != "" {
						t.Fatalf("step %d %s: state diverged: %s", step, what, diff)
					}
					if next := nextChange(fast); fast.due != next {
						t.Fatalf("step %d %s: cached due %v, next change %v", step, what, fast.due, next)
					}
				}
				if served == 0 || dropped == 0 {
					t.Fatalf("drive too gentle: served %d, dropped %d", served, dropped)
				}
			})
		}
	}
}
