package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hercules/internal/fleet"
)

// checkTotals reports whether a day's totals equal the sums over its
// interval stream, and, for a multi-region day, whether the global
// totals equal the sums over its regions. Sums run in the order the
// engine accumulates them, so float totals compare exactly.
func checkTotals(d fleet.DayResult) error {
	if len(d.Regions) == 0 {
		return checkSteps(d)
	}
	var q, drops, shed int
	var viol float64
	for i, r := range d.Regions {
		if err := checkSteps(r); err != nil {
			return fmt.Errorf("region %q: %w", r.Region, err)
		}
		q += r.TotalQueries
		drops += r.TotalDrops
		shed += r.TotalShed
		if i == 0 {
			viol = r.SLAViolationMin
		} else {
			viol += r.SLAViolationMin
		}
	}
	return compareTotals("regions", d, q, drops, shed, viol)
}

func checkSteps(d fleet.DayResult) error {
	if len(d.Steps) == 0 {
		return fmt.Errorf("no intervals")
	}
	var q, drops, shed int
	var viol float64
	for _, s := range d.Steps {
		q += s.Queries
		drops += s.Drops
		shed += s.Shed
		viol += s.ViolationMin
	}
	return compareTotals("intervals", d, q, drops, shed, viol)
}

func compareTotals(over string, d fleet.DayResult, q, drops, shed int, viol float64) error {
	if d.TotalQueries != q || d.TotalDrops != drops || d.TotalShed != shed || d.SLAViolationMin != viol {
		return fmt.Errorf("day totals (queries %d, drops %d, shed %d, violation %v min) differ from the sums over its %s (%d, %d, %d, %v)",
			d.TotalQueries, d.TotalDrops, d.TotalShed, d.SLAViolationMin, over, q, drops, shed, viol)
	}
	return nil
}

// checkDay applies every per-day check: the replay succeeded, its
// totals add up, and its JSON bytes equal the reference day's (nil
// reference: the day is the reference). It returns the day's JSON.
func checkDay(d fleet.DayResult, runErr error, ref []byte) ([]byte, error) {
	if runErr != nil {
		return nil, runErr
	}
	if err := checkTotals(d); err != nil {
		return nil, err
	}
	b, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	if ref != nil && !bytes.Equal(b, ref) {
		return b, fmt.Errorf("day JSON differs from the warm-up day")
	}
	return b, nil
}
