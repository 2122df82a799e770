package fleet

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// traceRecord is one decoded NDJSON trace line. complete reports that
// every required key (i, k, m, q, t) was present and not null; v and
// aux default to zero.
type traceRecord struct {
	I        int
	K, M     string
	Q        int64
	T        float64
	V, Aux   float64
	complete bool
}

// traceLine is the wire form of one NDJSON trace event as encoding/json
// decodes it. Required fields are pointers so a missing key is
// distinguishable from a zero value.
type traceLine struct {
	I   *int     `json:"i"`
	K   *string  `json:"k"`
	M   *string  `json:"m"`
	Q   *int64   `json:"q"`
	T   *float64 `json:"t"`
	V   float64  `json:"v"`
	Aux float64  `json:"aux"`
}

// record converts an encoding/json decode to the reader's form.
func (ln *traceLine) record() traceRecord {
	rec := traceRecord{V: ln.V, Aux: ln.Aux}
	rec.complete = ln.I != nil && ln.K != nil && ln.M != nil && ln.Q != nil && ln.T != nil
	if ln.I != nil {
		rec.I = *ln.I
	}
	if ln.K != nil {
		rec.K = *ln.K
	}
	if ln.M != nil {
		rec.M = *ln.M
	}
	if ln.Q != nil {
		rec.Q = *ln.Q
	}
	if ln.T != nil {
		rec.T = *ln.T
	}
	return rec
}

// lineDecoder decodes trace lines. Lines in the writer's own arrival
// and offer layout take a fast path (canonical) that reads the values
// straight from the bytes and allocates nothing once the line's model
// and kind names are interned. Every other line goes through
// encoding/json into traceLine, so it gets encoding/json's grammar,
// semantics and error text. FuzzTraceLineDecode holds the fast path to
// that reference.
type lineDecoder struct {
	intern map[string]string
}

func newLineDecoder() *lineDecoder {
	return &lineDecoder{intern: make(map[string]string)}
}

// decode parses one line into rec, overwriting all of it.
func (d *lineDecoder) decode(line []byte, rec *traceRecord) error {
	if d.canonical(line, rec) {
		return nil
	}
	var ln traceLine
	if err := json.Unmarshal(line, &ln); err != nil {
		return err
	}
	*rec = ln.record()
	return nil
}

// interned returns s as a string, allocating only the first time the
// decoder meets its bytes.
func (d *lineDecoder) interned(s []byte) string {
	v, ok := d.intern[string(s)]
	if !ok {
		v = string(s)
		d.intern[v] = v
	}
	return v
}

// canonical decodes an arrival or offer line laid out exactly as
// telemetry.NDJSONWriter writes it — keys in writer order, no
// whitespace, strings of printable ASCII without escapes — and reports
// false on any other layout or on a value encoding/json would reject.
// Numbers go through the strconv parse encoding/json uses, so the
// decoded values are bit-identical to its decode.
func (d *lineDecoder) canonical(b []byte, rec *traceRecord) bool {
	c := cursor{b: b, ok: true}
	c.lit(`{"i":`)
	i := c.int(strconv.IntSize)
	c.lit(`,"k":`)
	k := c.plain()
	c.lit(`,"m":`)
	m := c.plain()
	c.lit(`,"q":`)
	q := c.int(64)
	c.lit(`,"t":`)
	t := c.float()
	c.lit(`,"v":`)
	v := c.float()
	c.lit(`,"aux":`)
	aux := c.float()
	c.lit(`}`)
	if !c.ok || c.p != len(b) {
		return false
	}
	*rec = traceRecord{I: int(i), K: d.interned(k), M: d.interned(m), Q: q, T: t, V: v, Aux: aux, complete: true}
	return true
}

// cursor walks the canonical layout; once a step fails (ok false)
// every later step is a no-op.
type cursor struct {
	b  []byte
	p  int
	ok bool
}

func (c *cursor) lit(s string) {
	if c.ok && len(c.b)-c.p >= len(s) && string(c.b[c.p:c.p+len(s)]) == s {
		c.p += len(s)
		return
	}
	c.ok = false
}

// plain reads a string of printable ASCII other than backslash.
func (c *cursor) plain() []byte {
	if !c.ok || c.p == len(c.b) || c.b[c.p] != '"' {
		c.ok = false
		return nil
	}
	for q := c.p + 1; q < len(c.b); q++ {
		switch ch := c.b[q]; {
		case ch == '"':
			s := c.b[c.p+1 : q]
			c.p = q + 1
			return s
		case ch < ' ' || ch >= utf8.RuneSelf || ch == '\\':
			c.ok = false
			return nil
		}
	}
	c.ok = false
	return nil
}

// int reads a JSON number as a signed integer of the given bit size.
func (c *cursor) int(bitSize int) int64 {
	num := c.number()
	if !c.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, bitSize)
	c.ok = err == nil
	return n
}

// float reads a JSON number as a float64.
func (c *cursor) float() float64 {
	num := c.number()
	if !c.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	c.ok = err == nil
	return f
}

// number reads the JSON number -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// at the cursor.
func (c *cursor) number() []byte {
	if !c.ok {
		return nil
	}
	b, start := c.b, c.p
	p := start
	if p < len(b) && b[p] == '-' {
		p++
	}
	switch {
	case p == len(b):
		c.ok = false
	case b[p] == '0':
		p++
	case '1' <= b[p] && b[p] <= '9':
		p = digitsEnd(b, p+1)
	default:
		c.ok = false
	}
	if c.ok && p < len(b) && b[p] == '.' {
		p, c.ok = digitsAfter(b, p+1)
	}
	if c.ok && p < len(b) && (b[p] == 'e' || b[p] == 'E') {
		p++
		if p < len(b) && (b[p] == '+' || b[p] == '-') {
			p++
		}
		p, c.ok = digitsAfter(b, p)
	}
	c.p = p
	return b[start:p]
}

// digitsAfter returns the end of the run of at least one digit that
// starts at b[p], or false when there is none.
func digitsAfter(b []byte, p int) (int, bool) {
	if p == len(b) || b[p] < '0' || b[p] > '9' {
		return p, false
	}
	return digitsEnd(b, p+1), true
}

func digitsEnd(b []byte, p int) int {
	for p < len(b) && '0' <= b[p] && b[p] <= '9' {
		p++
	}
	return p
}
