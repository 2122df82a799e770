package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hercules/internal/cluster"
)

// sameRecord compares two decodes field by field, floats by bit
// pattern (so -0 and 0 differ).
func sameRecord(a, b traceRecord) bool {
	bits := math.Float64bits
	return a.complete == b.complete && a.I == b.I && a.K == b.K && a.M == b.M && a.Q == b.Q &&
		bits(a.T) == bits(b.T) && bits(a.V) == bits(b.V) && bits(a.Aux) == bits(b.Aux)
}

// FuzzTraceLineDecode is the differential target for the trace line
// decoder's fast path: whatever bytes it accepts, encoding/json must
// accept into traceLine and decode to the same values. The decoder as
// a whole must accept exactly what encoding/json accepts.
func FuzzTraceLineDecode(f *testing.F) {
	for _, s := range []string{
		// The writer's own lines.
		`{"i":12,"k":"arrival","m":"DLRM-RMC1","q":81,"t":0.01153,"v":100,"aux":1.0392}`,
		`{"i":3,"k":"offer","m":"DLRM-RMC1","q":-1,"t":0,"v":12011.954677215912,"aux":2.748526306368429}`,
		`{"i":3,"k":"route","m":"DLRM-RMC1","r":"east","q":81,"t":0.01153,"inst":4,"cand":[2,4],"n":2}`,
		// The writer's layout with values at the edge of the fast path.
		`{"i":1.0,"k":"arrival","m":"A","q":2,"t":0.5,"v":3,"aux":4}`,
		`{"i":1,"k":"arrival","m":"A","q":2e0,"t":0.5,"v":3,"aux":4}`,
		`{"i":-0,"k":"arrival","m":"A","q":9223372036854775807,"t":-0,"v":1e-400,"aux":4E+2}`,
		`{"i":1,"k":"arrival","m":"A","q":9223372036854775808,"t":0.5,"v":3,"aux":4}`,
		`{"i":1,"k":"arrival","m":"A","q":2,"t":1e999,"v":3,"aux":4}`,
		`{"i":01,"k":"arrival","m":"A","q":2,"t":1.,"v":.5,"aux":+4}`,
		"{\"i\":1,\"k\":\"arrival\",\"m\":\"\xff\x7f\",\"q\":2,\"t\":0.5,\"v\":3,\"aux\":4}",
		`{"i":1,"k":"arrival","m":"\u0041\n","q":2,"t":0.5,"v":3,"aux":4}`,
		`{"i":1,"k":"arrival","m":"A","q":2,"t":0.5,"v":3,"aux":4} `,
		`{"i":1,"k":"arrival","m":"A","q":2,"t":0.5,"v":3,"aux":4}}`,
		// Case-insensitive keys, the Kelvin sign for k (raw and escaped).
		`{"I":1,"K":"arrival","M":"A","Q":2,"T":0.5,"V":3,"AUX":4}`,
		"{\"i\":1,\"\u212a\":\"offer\",\"m\":\"A\",\"q\":-1,\"t\":0,\"v\":3,\"aUx\":4}",
		`{"i":1,"\u212a":"offer","\u006d":"A","q":-1,"t":0}`,
		// null clears the required fields but not v and aux.
		`{"i":1,"k":"arrival","m":"A","q":2,"t":0.5,"v":3,"aux":4,"v":null,"aux":null,"k":null}`,
		`null`,
		// Duplicate keys: the last wins.
		`{"i":1,"i":7,"m":"A","m":"B","v":1,"v":2}`,
		// Invalid UTF-8 and lone surrogates become U+FFFD.
		"{\"m\":\"\xff\xfeA\xed\xa0\x80\"}",
		`{"m":"\ud800x\udc00😀\ud800A"}`,
		// Wrong types, bad grammar, other top-level values.
		`{"k":1}`, `{"i":"1"}`, `{"v":true}`, `{"i":[1]}`, `{"m":{"a":1}}`,
		`[]`, `"arrival"`, `42`, `{`, `{"i"`, `{"i":}`, `{"i":1,}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var ln traceLine
		refErr := json.Unmarshal(data, &ln)
		want := ln.record()
		dec := newLineDecoder()
		var fast traceRecord
		if dec.canonical(data, &fast) {
			if refErr != nil {
				t.Fatalf("fast path accepts %q, encoding/json rejects it: %v", data, refErr)
			}
			if !sameRecord(fast, want) {
				t.Fatalf("fast decode of %q differs:\n got %+v\nwant %+v", data, fast, want)
			}
		}
		var got traceRecord
		err := dec.decode(data, &got)
		if (refErr == nil) != (err == nil) {
			t.Fatalf("accept/reject differs on %q: encoding/json %v, decoder %v", data, refErr, err)
		}
		if err == nil && !sameRecord(got, want) {
			t.Fatalf("decode of %q differs:\n got %+v\nwant %+v", data, got, want)
		}
	})
}

// TestTraceLineDecodeZeroAlloc: once a trace's model and kind names are
// interned, decoding a canonical arrival line allocates nothing.
func TestTraceLineDecodeZeroAlloc(t *testing.T) {
	line := []byte(`{"i":12,"k":"arrival","m":"DLRM-RMC1","q":81,"t":0.01153,"v":100,"aux":1.0392}`)
	dec := newLineDecoder()
	var rec traceRecord
	if err := dec.decode(line, &rec); err != nil {
		t.Fatal(err)
	}
	want := traceRecord{I: 12, K: "arrival", M: "DLRM-RMC1", Q: 81, T: 0.01153, V: 100, Aux: 1.0392, complete: true}
	if !sameRecord(rec, want) {
		t.Fatalf("decoded %+v, want %+v", rec, want)
	}
	if avg := testing.AllocsPerRun(200, func() { _ = dec.decode(line, &rec) }); avg != 0 {
		t.Errorf("%.2f allocs per arrival line, want 0", avg)
	}
}

// BenchmarkReadTrace ingests a recorded in-memory day: the trace
// ingest layer on its own, reported per arrival line.
func BenchmarkReadTrace(b *testing.B) {
	opts := testOpts()
	opts.Shards = 4
	ws := []cluster.Workload{{Model: "DLRM-RMC1", Trace: stepTrace(2000, 4000, 6000, 4000)}}
	rec, _ := recordDay(b, replaySpec(PowerOfTwo, opts), ws)
	queries := bytes.Count(rec, []byte(`"k":"arrival"`))
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTrace(bytes.NewReader(rec)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(queries), "ns/query")
}

// TestTraceErrorsKeepPositions pins the reader's error text with the
// bad line fourth, after a blank line: every semantic validation keeps
// its line number and message exactly, and a JSON syntax or type error
// keeps its "trace line N:" position.
func TestTraceErrorsKeepPositions(t *testing.T) {
	good := `{"i":0,"k":"offer","m":"M","q":-1,"t":0,"v":10,"aux":8}` + "\n" +
		`{"i":0,"k":"arrival","m":"M","q":1,"t":0.5,"v":100,"aux":1}` + "\n\n"
	exact := []struct{ line, want string }{
		{`{"i":0,"k":"arrival","m":"M"}`, "trace line 4: missing required field (want i, k, m, q, t)"},
		{`null`, "trace line 4: missing required field (want i, k, m, q, t)"},
		{`{"i":0,"k":"bogus","m":"M","q":1,"t":0,"v":1,"aux":1}`, `trace line 4: unknown event kind "bogus"`},
		{`{"i":-1,"k":"arrival","m":"M","q":1,"t":0,"v":1,"aux":1}`, "trace line 4: interval -1 out of range [0, 65536)"},
		{`{"i":0,"k":"arrival","m":"","q":1,"t":0,"v":1,"aux":1}`, "trace line 4: empty model name"},
		{`{"i":0,"k":"arrival","m":"M","q":0,"t":0,"v":1,"aux":1}`, "trace line 4: arrival query id 0 must be >= 1"},
		{`{"i":0,"k":"arrival","m":"M","q":2,"t":-1,"v":1,"aux":1}`, "trace line 4: arrival time -1 must be finite and >= 0"},
		{`{"i":0,"k":"arrival","m":"M","q":2,"t":0,"v":3000000000,"aux":1}`, "trace line 4: arrival size 3e+09 must be an integer >= 1"},
		{`{"i":0,"k":"arrival","m":"M","q":2,"t":0,"v":1,"aux":-2}`, "trace line 4: arrival sparse scale -2 must be finite and > 0"},
		{`{"i":0,"k":"offer","m":"M","q":-1,"t":0,"v":-3,"aux":8}`, "trace line 4: offer qps -3 must be finite and >= 0"},
		{`{"i":0,"k":"offer","m":"N","q":-1,"t":0,"v":10,"aux":0}`, "trace line 4: offer slice 0 must be finite and > 0"},
		{`{"i":0,"k":"offer","m":"M","q":-1,"t":0,"v":11,"aux":8}`, "trace line 4: duplicate offer for interval 0 model M"},
		{`{"i":0,"k":"arrival","m":"M","q":1,"t":0.7,"v":100,"aux":1}`, "duplicate query id 1 in interval 0 model M"},
		{`{"i":0,"k":"arrival","m":"M","q":3,"t":0.1,"v":100,"aux":1}`,
			"out-of-order timestamps in interval 0 model M: query 3 at 0.1s after query 1 at 0.5s"},
	}
	for _, c := range exact {
		if _, err := ReadTrace(strings.NewReader(good + c.line + "\n")); err == nil || err.Error() != c.want {
			t.Errorf("%s:\n got %v\nwant %s", c.line, err, c.want)
		}
	}
	for _, line := range []string{
		`{"i":0,"k":"arrival","m":"M","q":0.5,"t":0.7,"v":100,"aux":1}`,
		`{"i":0,"k":"arrival","m":"M","q":3,"t":0.1,"v":1e999,"aux":1}`,
		`{"i":0,"k":"arrival","m":"M","q":3,"t":0.1,"v":100,"aux":1} x`,
		`{"i":0,"k":"arrival"`,
		`{"i":0,"k":"route","m":"M","q":1,"t":0.1,"cand":[1,2}`,
		`[1]`,
		`not json`,
		`   `,
	} {
		if _, err := ReadTrace(strings.NewReader(good + line + "\n")); err == nil || !strings.HasPrefix(err.Error(), "trace line 4: ") {
			t.Errorf("%s: got %v, want a trace line 4 error", line, err)
		}
	}
}
