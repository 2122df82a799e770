package main

import (
	"encoding/json"
	"os"
	"time"

	"hercules/internal/fleet"
	"hercules/internal/telemetry"
)

// span is one host-time interval the benchmark measured around a call
// into the program, with the span that contains it (0: none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, which is how the untraced run uses it.
type spans struct {
	t0   time.Time
	list []span
}

func (s *spans) ns(t time.Time) int64 { return t.Sub(s.t0).Nanoseconds() }

// add records a finished span and returns its ID.
func (s *spans) add(name string, parent int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, StartNS: s.ns(start), EndNS: s.ns(end)})
	return len(s.list)
}

// open records a span that is still running; close ends it.
func (s *spans) open(name string, parent int) int {
	now := time.Now()
	return s.add(name, parent, now, now)
}

func (s *spans) close(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].EndNS = s.ns(time.Now())
}

// write saves the spans with the run's environment as one JSON file.
func (s *spans) write(path string, env map[string]any) error {
	b, err := json.Marshal(map[string]any{"env": env, "spans": s.list})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stepClock is the Observer that times a replayed day interval by
// interval: the host time between consecutive interval callbacks. In a
// multi-region day the regions report each interval in turn; the last
// report of an index closes its step.
type stepClock struct {
	start time.Time
	at    []time.Time
	tr    *spans
	day   int // span ID of the RunDay the intervals belong to
}

func (c *stepClock) begin(steps int, tr *spans, day int) {
	c.at = c.at[:0]
	for len(c.at) < steps {
		c.at = append(c.at, time.Time{})
	}
	c.tr, c.day = tr, day
	c.start = time.Now()
}

// ObserveInterval implements fleet.Observer.
func (c *stepClock) ObserveInterval(ist fleet.IntervalStats) {
	now := time.Now()
	if ist.Index < len(c.at) {
		c.at[ist.Index] = now
	}
	if c.tr != nil {
		prev := c.start
		if ist.Index > 0 {
			prev = c.at[ist.Index-1]
		}
		c.tr.add("interval", c.day, prev, now)
	}
}

// steps returns the host seconds of each interval step of the last day.
func (c *stepClock) steps() []float64 {
	out := make([]float64, len(c.at))
	prev := c.start
	for i, t := range c.at {
		out[i] = t.Sub(prev).Seconds()
		prev = t
	}
	return out
}

// probe is the traced run's in-memory trace sink: counts by kind, plus
// what the per-layer metrics read from sampled queries.
type probe struct {
	telemetry.CountSink
	candSum, routes  uint64
	batchSum, starts uint64
	waitsMS          []float64
	// latMS holds the first traced day's sampled latencies (ms) by
	// region, interval and model; events is a copy of that day's stream.
	latMS  map[latKey][]float64
	events []telemetry.Event
	keep   bool
}

type latKey struct {
	region   string
	interval int32
	model    string
}

// WriteEvents implements telemetry.Sink.
func (p *probe) WriteEvents(evs []telemetry.Event) error {
	_ = p.CountSink.WriteEvents(evs)
	if p.keep {
		p.events = append(p.events, evs...)
	}
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case telemetry.KindRoute:
			p.candSum += uint64(ev.NCand)
			p.routes++
		case telemetry.KindEnqueue:
			p.waitsMS = append(p.waitsMS, ev.Value*1e3)
		case telemetry.KindStart:
			p.batchSum += uint64(ev.Value)
			p.starts++
		case telemetry.KindComplete:
			if p.keep {
				k := latKey{ev.Region, ev.Interval, ev.Model}
				p.latMS[k] = append(p.latMS[k], ev.Value*1e3)
			}
		}
	}
	return nil
}
