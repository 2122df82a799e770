package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// validTwoIntervals is a well-formed two-interval recording, offer
// lines in the form the writer emits them ("q":-1,"t":0). It is the
// fuzz corpus's accepted seed (seed_valid_two_intervals).
const validTwoIntervals = `{"i":0,"k":"offer","m":"A","q":-1,"t":0,"v":10,"aux":4}
{"i":0,"k":"arrival","m":"A","q":1,"t":0.1,"v":3,"aux":4}
{"i":0,"k":"arrival","m":"A","q":2,"t":0.2,"v":1,"aux":4}
{"i":1,"k":"offer","m":"A","q":-1,"t":0,"v":12,"aux":4}
{"i":1,"k":"arrival","m":"A","q":9,"t":0.05,"v":2,"aux":4}
`

// TestValidFuzzSeedParses: the accepted seed, inline and committed,
// must really be accepted — else FuzzTraceParse's invariant branch
// starts from no accepted input at all.
func TestValidFuzzSeedParses(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzTraceParse", "seed_valid_two_intervals"))
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	committed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("corpus file: %v", err)
	}
	if committed != validTwoIntervals {
		t.Errorf("committed seed differs from the inline one:\n%s", committed)
	}
	ts, err := ReadTrace(strings.NewReader(validTwoIntervals))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ts.Queries(0, "A")) + len(ts.Queries(1, "A")); ts.Steps() != 2 || n != 3 {
		t.Errorf("seed parsed to %d steps and %d queries, want 2 and 3", ts.Steps(), n)
	}
}

// FuzzTraceParse hammers the NDJSON trace reader with arbitrary bytes:
// it must never panic, and when it does accept an input the result must
// satisfy the reader's own invariants — sorted models, per-(interval,
// model) queries in strictly increasing ID order with non-decreasing
// timestamps, and every interval inside [0, Steps).
func FuzzTraceParse(f *testing.F) {
	f.Add([]byte(validTwoIntervals))
	// Lines the reader must reject without panicking.
	f.Add([]byte(`{"i":0,"k":"arrival","m":"A","q":2,"t":0.2,"v":1,"aux":4}
{"i":0,"k":"arrival","m":"A","q":2,"t":0.3,"v":1,"aux":4}
`)) // duplicate query id
	f.Add([]byte(`{"i":0,"k":"arrival","m":"A","q":5,"t":0.9,"v":1,"aux":4}
{"i":0,"k":"arrival","m":"A","q":7,"t":0.1,"v":1,"aux":4}
`)) // out-of-order timestamps
	f.Add([]byte(`{"i":0,"k":"warp","m":"A","q":1,"t":0,"v":1,"aux":4}`)) // unknown kind
	f.Add([]byte(`{"i":-3,"k":"arrival","m":"A","q":1,"t":0,"v":1,"aux":4}`))
	f.Add([]byte(`{"i":0,"k":"arrival","m":"A","q":1,"t":1e999,"v":1,"aux":4}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"i":0,"k":"hit","m":"A","q":1,"t":0,"v":0.0003}` + "\n" +
		`{"i":0,"k":"arrival","m":"A","q":1,"t":0,"v":1,"aux":4}`)) // skipped kinds interleaved
	f.Add([]byte(`{"i":0,"k":"offer","m":"A","v":10,"aux":4}
{"i":0,"k":"offer","m":"A","v":11,"aux":4}
`)) // duplicate offer

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if ts != nil {
				t.Fatal("non-nil TraceSource alongside error")
			}
			return
		}
		steps := ts.Steps()
		if steps <= 0 || steps > maxTraceIntervals {
			t.Fatalf("accepted trace with %d steps", steps)
		}
		models := ts.Models()
		if len(models) == 0 {
			t.Fatal("accepted trace with no models")
		}
		for i := 1; i < len(models); i++ {
			if models[i-1] >= models[i] {
				t.Fatalf("models not sorted: %v", models)
			}
		}
		for i := 0; i < steps; i++ {
			if s := ts.Slice(i); s < 0 {
				t.Fatalf("interval %d: negative slice %g", i, s)
			}
			for _, m := range models {
				qs := ts.Queries(i, m)
				for j := 1; j < len(qs); j++ {
					if qs[j-1].ID >= qs[j].ID {
						t.Fatalf("interval %d model %s: query IDs not strictly increasing", i, m)
					}
					if qs[j-1].ArrivalS > qs[j].ArrivalS {
						t.Fatalf("interval %d model %s: timestamps regress", i, m)
					}
				}
			}
		}
		// The accepted trace must produce a replayable workload set.
		ws := ts.Workloads(600, 4)
		if len(ws) != len(models) {
			t.Fatalf("Workloads returned %d entries for %d models", len(ws), len(models))
		}
	})
}

// FuzzSpecDecode throws arbitrary JSON at the fleet Spec decoder and
// the defaulting pass behind it: decode, default, re-encode must never
// panic, a defaulted spec must survive a decode round trip, and a spec
// that Normalize accepts has a positive, finite slice and window.
func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"router":"p2c","policy":"greedy","models":["DLRM-RMC1"]}`))
	f.Add([]byte(`{"cache":{"hit_rate":0.8,"latency_ms":0.2,"per_model":{"A":0.5}}}`))
	f.Add([]byte(`{"trace":"/dev/null","scenario":"cachestorm","headroom_r":-3}`))
	f.Add([]byte(`{"options":{"slice_s":1e308,"shards":-9,"seed":null}}`))
	f.Add([]byte(`{"sweep":{"routers":["p2c","rand"]},"admission":{"kind":"deadline","gain":1e309}}`))
	f.Add([]byte(`{"models":[""],"cache":{"hit_rate":"NaN"}}`))
	f.Add([]byte(`{"grid":{"curve":"duck","deferrable_frac":0.4},"scaler":"carbon","admission":"carbon"}`))
	f.Add([]byte(`{"grid":{"hourly_g":[1,2,3],"regions":{"east":{"phase_h":-99}}}}`))
	f.Add([]byte(`{"scenario":"{\"name\":\"c\",\"events\":[{\"kind\":\"powercap\",\"type\":\"T2\",\"watts\":-5}]}"}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"options":{"slice_s":0,"window_s":-1,"queue_cap":4}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		def := spec.withDefaults()
		out, err := json.Marshal(def)
		if err != nil {
			// Spec holds only JSON-representable scalars, maps and
			// slices; a decode that succeeded must re-encode.
			t.Fatalf("defaulted spec failed to marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("defaulted spec did not round-trip: %v\n%s", err, out)
		}
		if def.Router == "" || def.Policy == "" {
			t.Fatalf("withDefaults left router/policy empty: %q %q", def.Router, def.Policy)
		}
		if norm, err := spec.Normalize(); err == nil {
			if o := norm.Options; !(o.SliceS > 0) || math.IsInf(o.SliceS, 0) || !(o.WindowS > 0) || math.IsInf(o.WindowS, 0) {
				t.Fatalf("Normalize accepted slice_s %v, window_s %v", o.SliceS, o.WindowS)
			}
		}
	})
}

// TestFuzzSeedsAreCommitted keeps an on-disk corpus alongside the
// inline f.Add seeds: short CI fuzz passes start from these files, and
// any crasher minimized locally lands here as a regression input.
func TestFuzzSeedsAreCommitted(t *testing.T) {
	for _, target := range []string{"FuzzTraceParse", "FuzzTraceLineDecode", "FuzzSpecDecode"} {
		dir := filepath.Join("testdata", "fuzz", target)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s corpus missing: %v", target, err)
		}
		n := 0
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(raw), "go test fuzz v1\n") {
				t.Errorf("%s/%s: not in go-fuzz corpus format", target, e.Name())
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%s corpus is empty", target)
		}
	}
}
