package main

import "repro/internal/stats"

// quantile is stats.Quantile with no samples read as 0: a run that
// served nothing reports zero latencies, next to a served_ratio of 0.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
