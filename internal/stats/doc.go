// Package stats provides small statistical utilities used throughout the
// Hercules simulator: percentile estimation over sample sets, fixed-bin
// histograms, running means, and deterministic RNG construction.
//
// All simulator randomness flows through rand.Rand instances created by
// NewRand so that every experiment is reproducible given its seed.
//
// The surface: Sample collects values and answers percentile queries
// (the tail-latency plumbing of every layer); PercentileSorted,
// PercentileSelect and PercentilesSelect serve hot loops that manage
// their own buffers — the latter two via in-place quickselect, O(n) for
// a few percentile points; Histogram and Welford
// cover binned distributions and running moments; NewZipf/ZipfMass back
// the hot-embedding skew of internal/partition; Lognormal, Poisson and
// Exponential are the seeded draws the workload generators use; Clamp
// and ClampInt are shared bounds helpers.
package stats
