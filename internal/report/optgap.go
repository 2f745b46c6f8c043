package report

// OptGapPoint is one windowed optimality sample for reporting: the
// simulated tick and the live competitive-ratio estimate at that tick. It
// mirrors telemetry.OptPoint without importing it, keeping report a leaf
// package.
type OptGapPoint struct {
	Tick  float64
	Ratio float64
}

// OptGapSeries converts windowed optimality samples into a chart Series
// of competitive ratio over simulated time.
func OptGapSeries(name string, pts []OptGapPoint) Series {
	s := Series{Name: name, X: make([]float64, len(pts)), Y: make([]float64, len(pts))}
	for i, p := range pts {
		s.X[i] = p.Tick
		s.Y[i] = p.Ratio
	}
	return s
}
