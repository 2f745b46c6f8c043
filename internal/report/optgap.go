package report

import (
	"hbmsim/internal/telemetry"
)

// OptGapSeries converts an OptTracker's series into a chartable Series
// of the live competitive-ratio estimate over simulated time.
func OptGapSeries(name string, t *telemetry.OptTracker) Series {
	pts := t.Series()
	s := Series{Name: name, X: make([]float64, len(pts)), Y: make([]float64, len(pts))}
	for i, p := range pts {
		s.X[i] = float64(p.Tick)
		s.Y[i] = p.Ratio
	}
	return s
}
