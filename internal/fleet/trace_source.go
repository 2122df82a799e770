package fleet

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"hercules/internal/cluster"
	"hercules/internal/telemetry"
	"hercules/internal/workload"
)

// maxTraceIntervals bounds the interval index a trace line may carry
// (~45 days of 1-minute steps). The cap keeps a corrupt or adversarial
// line from sizing day-long allocations off one integer.
const maxTraceIntervals = 1 << 16

// TraceSource replays a recorded arrival trace instead of synthesizing
// one: the inverse of the telemetry NDJSON exporter. It consumes the
// arrival ("k":"arrival") and offer ("k":"offer") lines of a trace the
// fleet CLI recorded (-record, or any tracer export at sample 1) and
// reconstructs, per (interval, model), exactly the query stream the
// recording run generated — same IDs, arrival instants, sizes and
// sparse scales — plus the offered load and replayed slice length the
// engine needs to re-provision identically. Re-ingesting a recorded
// day therefore reproduces the original DayResult byte for byte, at
// any shard count: arrivals are canonically ordered (query IDs are
// assigned in arrival order), and every downstream random decision
// (shedding, shard splitting, routing, cache hits) draws from streams
// seeded by the query's identity, not by how it was read back in.
//
// Lifecycle events other than arrival and offer are skipped, so a full
// trace (routes, service spans, completions) re-ingests as readily as
// a Restrict()-ed arrival-only recording. Malformed lines — unknown
// kinds, non-finite or negative fields, duplicate query IDs,
// timestamps that run backwards within a stream — are errors with line
// positions, never panics (the contract the package fuzz targets pin).
type TraceSource struct {
	models   []string // sorted
	steps    int
	arrivals map[traceKey][]workload.Query
	offers   map[traceKey]traceOffer
}

type traceKey struct {
	interval int
	model    string
}

type traceOffer struct {
	qps    float64
	sliceS float64
}

// LoadTrace reads an NDJSON arrival trace from a file.
func LoadTrace(path string) (*TraceSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: trace: %w", err)
	}
	defer f.Close()
	ts, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("fleet: trace %s: %w", path, err)
	}
	return ts, nil
}

// ReadTrace parses an NDJSON arrival trace from r. See TraceSource for
// the accepted format and the validation contract.
func ReadTrace(r io.Reader) (*TraceSource, error) {
	ts := &TraceSource{
		arrivals: make(map[traceKey][]workload.Query),
		offers:   make(map[traceKey]traceOffer),
	}
	// Arrival streams in the order first met, with an index by key.
	// Arrival lines come in long runs of one (interval, model) stream,
	// so a line appends to the current stream and looks the key up
	// only when the run changes. The fixed order also keeps the
	// canonicalization pass below (and the error it reports first)
	// independent of map iteration order.
	var (
		keys    []traceKey
		streams [][]workload.Query
		cur     = -1
	)
	index := make(map[traceKey]int)
	dec := newLineDecoder()
	var ln traceRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if err := dec.decode(raw, &ln); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if !ln.complete {
			return nil, fmt.Errorf("trace line %d: missing required field (want i, k, m, q, t)", lineNo)
		}
		kind, ok := telemetry.KindByName(ln.K)
		if !ok {
			return nil, fmt.Errorf("trace line %d: unknown event kind %q", lineNo, ln.K)
		}
		if ln.I < 0 || ln.I >= maxTraceIntervals {
			return nil, fmt.Errorf("trace line %d: interval %d out of range [0, %d)", lineNo, ln.I, maxTraceIntervals)
		}
		if ln.M == "" {
			return nil, fmt.Errorf("trace line %d: empty model name", lineNo)
		}
		key := traceKey{ln.I, ln.M}
		switch kind {
		case telemetry.KindArrival:
			if err := validArrival(&ln); err != nil {
				return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
			}
			if cur < 0 || keys[cur] != key {
				i, known := index[key]
				if !known {
					i = len(keys)
					index[key] = i
					keys = append(keys, key)
					streams = append(streams, nil)
				}
				cur = i
			}
			streams[cur] = append(streams[cur], workload.Query{
				ID:          ln.Q,
				ArrivalS:    ln.T,
				Size:        int(ln.V),
				SparseScale: ln.Aux,
			})
		case telemetry.KindOffer:
			if !isFinite(ln.V) || ln.V < 0 {
				return nil, fmt.Errorf("trace line %d: offer qps %g must be finite and >= 0", lineNo, ln.V)
			}
			if !isFinite(ln.Aux) || ln.Aux <= 0 {
				return nil, fmt.Errorf("trace line %d: offer slice %g must be finite and > 0", lineNo, ln.Aux)
			}
			if _, dup := ts.offers[key]; dup {
				return nil, fmt.Errorf("trace line %d: duplicate offer for interval %d model %s", lineNo, ln.I, ln.M)
			}
			ts.offers[key] = traceOffer{qps: ln.V, sliceS: ln.Aux}
		default:
			// A full lifecycle trace re-ingests: only arrivals and offers
			// carry replay state.
			continue
		}
		if ln.I+1 > ts.steps {
			ts.steps = ln.I + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %w", lineNo+1, err)
	}
	if len(keys) == 0 && len(ts.offers) == 0 {
		return nil, fmt.Errorf("empty trace: no arrival or offer events")
	}

	// Canonicalize: per-(interval, model) streams in query-ID order —
	// the generation order of the recording run (IDs are assigned as
	// queries arrive), restored regardless of how shard interleaving
	// ordered the exported lines. The sorted stream is where duplicate
	// IDs and backwards timestamps become detectable.
	seen := make(map[string]bool)
	for i, key := range keys {
		qs := streams[i]
		ts.arrivals[key] = qs
		slices.SortFunc(qs, byQueryID)
		for j := 1; j < len(qs); j++ {
			if qs[j].ID == qs[j-1].ID {
				return nil, fmt.Errorf("duplicate query id %d in interval %d model %s", qs[j].ID, key.interval, key.model)
			}
			if qs[j].ArrivalS < qs[j-1].ArrivalS {
				return nil, fmt.Errorf("out-of-order timestamps in interval %d model %s: query %d at %gs after query %d at %gs",
					key.interval, key.model, qs[j].ID, qs[j].ArrivalS, qs[j-1].ID, qs[j-1].ArrivalS)
			}
		}
		seen[key.model] = true
	}
	for key := range ts.offers {
		seen[key.model] = true
	}
	for m := range seen {
		ts.models = append(ts.models, m)
	}
	sort.Strings(ts.models)
	return ts, nil
}

func byQueryID(a, b workload.Query) int { return cmp.Compare(a.ID, b.ID) }

// validArrival checks one arrival line's payload: a positive query ID,
// a finite non-negative arrival instant, an integral size >= 1, and a
// finite positive sparse scale.
func validArrival(ln *traceRecord) error {
	if ln.Q <= 0 {
		return fmt.Errorf("arrival query id %d must be >= 1", ln.Q)
	}
	if !isFinite(ln.T) || ln.T < 0 {
		return fmt.Errorf("arrival time %g must be finite and >= 0", ln.T)
	}
	if !isFinite(ln.V) || ln.V < 1 || ln.V != math.Trunc(ln.V) || ln.V > math.MaxInt32 {
		return fmt.Errorf("arrival size %g must be an integer >= 1", ln.V)
	}
	if !isFinite(ln.Aux) || ln.Aux <= 0 {
		return fmt.Errorf("arrival sparse scale %g must be finite and > 0", ln.Aux)
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Models lists the trace's workload models in sorted order.
func (ts *TraceSource) Models() []string { return ts.models }

// Steps returns the trace's interval count (highest interval + 1).
func (ts *TraceSource) Steps() int { return ts.steps }

// Queries returns one (interval, model) arrival stream in query-ID
// (= arrival) order. The returned slice is the source's own — callers
// that mutate (the engine's shed thinning does) must copy first.
func (ts *TraceSource) Queries(interval int, model string) []workload.Query {
	return ts.arrivals[traceKey{interval, model}]
}

// Slice returns the interval's recorded replay-slice length in
// seconds, or 0 when the trace carries no offer for it. All models of
// one interval share a slice, so the first (in sorted model order) is
// authoritative.
func (ts *TraceSource) Slice(interval int) float64 {
	for _, m := range ts.models {
		if off, ok := ts.offers[traceKey{interval, m}]; ok {
			return off.sliceS
		}
	}
	return 0
}

// Workloads reconstructs the per-model load traces the engine
// provisions against: each interval's offered QPS verbatim from the
// recorded offer (the exact float the recording run provisioned with),
// falling back to arrivals ÷ slice for traces without offers
// (hand-written or third-party). stepS is the interval length of the
// replayed day; fallbackSliceS prices the no-offer fallback (normally
// the engine's Options.SliceS).
func (ts *TraceSource) Workloads(stepS, fallbackSliceS float64) []cluster.Workload {
	if stepS <= 0 {
		stepS = 900
	}
	ws := make([]cluster.Workload, 0, len(ts.models))
	for _, m := range ts.models {
		loads := make([]float64, ts.steps)
		for i := 0; i < ts.steps; i++ {
			key := traceKey{i, m}
			if off, ok := ts.offers[key]; ok {
				loads[i] = off.qps
				continue
			}
			if n := len(ts.arrivals[key]); n > 0 {
				sliceS := ts.Slice(i)
				if sliceS <= 0 {
					sliceS = fallbackSliceS
				}
				if sliceS > 0 {
					loads[i] = float64(n) / sliceS
				}
			}
		}
		ws = append(ws, cluster.Workload{
			Model: m,
			Trace: workload.DiurnalTrace{Service: m, StepS: stepS, LoadsQPS: loads},
		})
	}
	return ws
}
