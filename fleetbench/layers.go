package main

import (
	"math"
	"sort"
	"time"

	"hercules/internal/cluster"
	"hercules/internal/fleet"
	"hercules/internal/model"
	"hercules/internal/stats"
	"hercules/internal/telemetry"
	"hercules/internal/workload"
)

// The layer micro-replays time each layer from outside, through its
// public functions, on the inputs one replayed day gives it: the day's
// per-interval offered loads and slices, its query streams, its
// provisioning steps and the traced run's sampled latencies and events.
// Each returns the layer's work and host time over one day, or its host
// time per unit of work.

// layerDay is one day's work and host time per layer.
type layerDay struct {
	genQueries int
	genS       float64
	picks      int
	pickS      float64
	arriveS    float64
	steps      int // Provisioner.Step calls timed (one per interval)
	stepS      float64
}

// sliceFor mirrors the engine's slice sizing: the full slice unless the
// offered load would exceed the per-interval query budget.
func sliceFor(opts fleet.Options, offered float64) float64 {
	s := opts.SliceS
	if b := float64(opts.MaxQueriesPerInterval); b > 0 && offered*s > b {
		s = b / offered
	}
	return s
}

// modelLoads splits an interval's offered load over the part's models
// in proportion to their trace loads at that interval.
func modelLoads(p part, i int, offered float64) map[string]float64 {
	var sum float64
	for _, w := range p.ws {
		sum += w.Trace.LoadsQPS[i]
	}
	out := make(map[string]float64, len(p.ws))
	for _, w := range p.ws {
		if sum > 0 {
			out[w.Model] = offered * w.Trace.LoadsQPS[i] / sum
		}
	}
	return out
}

// measureLayers runs the generation, routing, instance and control-plane
// micro-replays over every interval of one day of every part.
func measureLayers(parts []part, days []fleet.DayResult, seed int64) (layerDay, error) {
	var ld layerDay
	var buf []workload.Query
	var picks []int
	var comps []fleet.Completion
	for pi, p := range parts {
		eng := p.eng
		models := make(map[string]*model.Model, len(p.ws))
		for _, w := range p.ws {
			m, err := model.ByName(w.Model, model.Prod)
			if err != nil {
				return ld, err
			}
			models[w.Model] = m
		}
		src := fleet.SharedSimService(eng.Table)
		prov := cluster.NewProvisioner(eng.Fleet, eng.Table, eng.Provisioner.Kind, seed)
		prov.OverProvisionR = eng.Spec.HeadroomR
		conc := map[[2]string]int{}
		for i, ist := range days[pi].Steps {
			if ist.OfferedQPS <= 0 {
				continue
			}
			sliceS := sliceFor(eng.Opts, ist.OfferedQPS)
			loads := modelLoads(p, i, ist.OfferedQPS)

			t := time.Now()
			alloc := prov.Step(loads).Alloc
			ld.stepS += time.Since(t).Seconds()
			ld.steps++

			names := sortedKeys(loads)
			for mi, name := range names {
				qseed := seed ^ int64(i)<<16 ^ int64(mi)<<8 ^ int64(pi)
				if eng.TraceSrc == nil {
					t = time.Now()
					buf = workload.NewGenerator(models[name], loads[name], qseed).AppendUntil(buf[:0], sliceS)
					ld.genS += time.Since(t).Seconds()
					ld.genQueries += len(buf)
				} else {
					buf = append(buf[:0], eng.TraceSrc.Queries(i, name)...)
				}
				pool := buildPool(eng, src, alloc, name, buf, conc)
				if len(pool) == 0 || len(buf) == 0 {
					continue
				}
				router, err := fleet.NewRouter(eng.Router)
				if err != nil {
					return ld, err
				}
				// Pick+arrive over the stream, recording each choice; then
				// arrive alone on the recorded choices. The difference is
				// the routing time.
				rng := stats.NewRand(qseed)
				picks = picks[:0]
				for _, in := range pool {
					in.Reset()
				}
				t = time.Now()
				for _, q := range buf {
					k := router.Pick(pool, q.ArrivalS, rng)
					picks = append(picks, k)
					comps = arrive(pool[k], q, comps)
				}
				comps = flush(pool, comps)
				both := time.Since(t).Seconds()
				for _, in := range pool {
					in.Reset()
				}
				t = time.Now()
				for j, q := range buf {
					comps = arrive(pool[picks[j]], q, comps)
				}
				comps = flush(pool, comps)
				alone := time.Since(t).Seconds()
				ld.picks += len(buf)
				ld.arriveS += alone
				ld.pickS += both - alone
			}
		}
	}
	return ld, nil
}

func arrive(in *fleet.Instance, q workload.Query, comps []fleet.Completion) []fleet.Completion {
	if in.MaxBatch <= 1 {
		in.Arrive(q.ArrivalS, q.Size, q.SparseScale)
		return comps
	}
	comps, _ = in.ArriveBatched(q.ID, q.ArrivalS, q.Size, q.SparseScale, comps[:0])
	return comps
}

func flush(pool []*fleet.Instance, comps []fleet.Completion) []fleet.Completion {
	for _, in := range pool {
		if in.MaxBatch > 1 {
			comps = in.FlushPending(comps[:0])
		}
	}
	return comps
}

// buildPool approximates the engine's pool for one model from a
// provisioning decision: one instance per allocated server, weighted by
// the profiled capacity, with enough channels that saturation matches
// it, batching at the spec's cap when the spec batches.
func buildPool(eng *fleet.Engine, src *fleet.SimService, alloc cluster.Allocation, name string, qs []workload.Query, conc map[[2]string]int) []*fleet.Instance {
	var pool []*fleet.Instance
	for _, h := range sortedKeys(alloc) {
		n := alloc[h][name]
		entry, ok := eng.Table.Get(h, name)
		if n <= 0 || !ok || entry.QPS <= 0 {
			continue
		}
		svc := src.PairService(h, name)
		if svc == nil {
			continue
		}
		key := [2]string{h, name}
		c, ok := conc[key]
		if !ok {
			c = channels(svc, entry.QPS, qs)
			conc[key] = c
		}
		var eff []float64
		if eng.Opts.MaxBatch > 1 {
			eff = src.PairBatchEff(h, name, eng.Opts.MaxBatch)
		}
		for k := 0; k < n; k++ {
			in := fleet.NewInstance(len(pool), h, name, entry.QPS, c, eng.Opts.QueueCap, svc)
			if eff != nil {
				in.EnableBatching(eng.Opts.MaxBatch, eng.Opts.BatchWaitS, eff)
			}
			pool = append(pool, in)
		}
	}
	return pool
}

// channels sizes an instance so c / E[service] matches the profiled
// capacity, with the mean taken over the first queries of the stream.
func channels(svc func(int, float64) float64, qps float64, qs []workload.Query) int {
	var sum float64
	n := 0
	for _, q := range qs[:min(len(qs), 256)] {
		if s := svc(q.Size, q.SparseScale); s > 0 && !math.IsInf(s, 0) {
			sum += s
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return stats.ClampInt(int(math.Ceil(qps*sum/float64(n))), 1, 256)
}

// measureSelect runs PercentileSelect over one day's latency buffers in
// the engine's call pattern: per model, each window buffer at the
// percentile its engine's scaler breaches on, then the model buffer at
// p95 and p99; per interval, the merged buffer at p50, p95 and p99. The
// buffers are the traced run's sampled latencies, tiled to the sizes
// the day replayed.
func measureSelect(parts []part, days []fleet.DayResult, lat map[latKey][]float64) (elems int, secs float64) {
	var win, mBuf, all []float64
	timed := func(xs []float64, p float64) {
		t := time.Now()
		stats.PercentileSelect(xs, p)
		secs += time.Since(t).Seconds()
		elems += len(xs)
	}
	for pi, d := range days {
		tailPct := breachPct(parts[pi].eng)
		for _, ist := range d.Steps {
			var sampled int
			keys := make([]latKey, 0, 2)
			for k, v := range lat {
				if k.region == d.Region && int(k.interval) == ist.Index && len(v) > 0 {
					keys = append(keys, k)
					sampled += len(v)
				}
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a].model < keys[b].model })
			served := ist.Queries - ist.Drops
			if sampled == 0 || served <= 0 || ist.Windows <= 0 {
				continue
			}
			all = all[:0]
			for _, k := range keys {
				src := lat[k]
				n := served * len(src) / sampled
				mBuf = tile(mBuf[:0], src, n)
				w := n / ist.Windows
				for s := 0; w > 0 && s+w <= n; s += w {
					win = append(win[:0], mBuf[s:s+w]...)
					timed(win, tailPct)
				}
				all = append(all, mBuf...)
				timed(mBuf, 95)
				timed(mBuf, 99)
			}
			for _, p := range []float64{50, 95, 99} {
				timed(all, p)
			}
		}
	}
	return elems, secs
}

// breachPct is the percentile an engine selects on each window buffer
// for its breach verdict: its scaler's, else p95.
func breachPct(eng *fleet.Engine) float64 {
	if eng.Scaler != nil {
		if tp, _ := eng.Scaler.Thresholds(); tp > 0 {
			return tp
		}
	}
	return 95
}

// tile repeats the sampled latencies to n values, nudging each repeat
// by a part per million so the buffer has no artificial ties.
func tile(dst, src []float64, n int) []float64 {
	for j := 0; j < n; j++ {
		rep := float64(j / len(src))
		dst = append(dst, src[j%len(src)]*(1+rep*1e-6))
	}
	return dst
}

// measureIngest times Tracer.Ingest+Flush into a CountSink over a copy
// of one traced day's events, flushing at each interval boundary as the
// engine does. It returns nanoseconds per event.
func measureIngest(evs []telemetry.Event, seed int64) float64 {
	if len(evs) == 0 {
		return 0
	}
	var total time.Duration
	n := 0
	for total < 50*time.Millisecond || n < 3 {
		tr := telemetry.NewTracer(seed, probeSample, 0)
		tr.AddSink(&telemetry.CountSink{})
		t := time.Now()
		start := 0
		for j := 1; j <= len(evs); j++ {
			if j == len(evs) || evs[j].Interval != evs[start].Interval || evs[j].Region != evs[start].Region {
				tr.Ingest(evs[start:j])
				tr.Flush()
				start = j
			}
		}
		total += time.Since(t)
		n++
	}
	return float64(total.Nanoseconds()) / float64(n*len(evs))
}

// measureObserver times the metrics observer over a day's interval
// stream. It returns microseconds per interval.
func measureObserver(days []fleet.DayResult) float64 {
	obs := fleet.NewMetricsObserver(telemetry.NewRegistry())
	var total time.Duration
	n := 0
	for total < 20*time.Millisecond {
		t := time.Now()
		for _, d := range days {
			for _, ist := range d.Steps {
				obs.ObserveInterval(ist)
				n++
			}
		}
		total += time.Since(t)
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n)
}

// measureMerge times MergeDays over a multi-region day's regions. It
// returns microseconds per merge, 0 for a single-region day.
func measureMerge(d fleet.DayResult) float64 {
	if len(d.Regions) == 0 {
		return 0
	}
	var total time.Duration
	n := 0
	for total < 20*time.Millisecond || n < 3 {
		t := time.Now()
		fleet.MergeDays(d.Regions...)
		total += time.Since(t)
		n++
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
