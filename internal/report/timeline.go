package report

import (
	"hbmsim/internal/telemetry"
)

// TimelineSeries converts a Timeline into a chartable Series of Jain's
// fairness index over per-core serve counts: x is the window's end tick,
// y the index in that window.
func TimelineSeries(name string, tl *telemetry.Timeline) Series {
	wins := tl.Windows()
	s := Series{
		Name: name,
		X:    make([]float64, 0, len(wins)),
		Y:    make([]float64, 0, len(wins)),
	}
	for i := range wins {
		w := &wins[i]
		s.X = append(s.X, float64(w.End))
		s.Y = append(s.Y, w.JainFairness())
	}
	return s
}
