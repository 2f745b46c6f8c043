package experiments

import (
	"fmt"

	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
	"hbmsim/internal/trace"
)

// ratioStudy runs two schemes over the (threads x HBM-size) grid and
// reports base-makespan / comp-makespan: the exact quantity plotted in
// Figures 2 and 4 ("the ratio of FIFO's makespan to priority's makespan;
// values greater than 1.0 show an advantage for priority"). It returns
// the ratio table, one chart series per HBM size, and the extreme ratios
// for the headline. wl holds the largest thread count's cores; each row
// runs on its prefix.
func ratioStudy(o Options, wl *trace.Workload, base, comp scheme) (*report.Table, []report.Series, ratioExtremes, error) {
	type cell struct{ pi, ki int }
	var jobs []sweep.Job
	var cells []cell
	for pi, p := range o.Threads {
		sub := wl.Subset(p)
		for ki, k := range o.HBMSlots {
			seed := o.Seed + int64(1000*pi+10*ki)
			jobs = append(jobs,
				sweep.Job{
					Name:     fmt.Sprintf("%s p=%d k=%d", base.name, p, k),
					Config:   base.config(o, k, seed),
					Workload: sub,
				},
				sweep.Job{
					Name:     fmt.Sprintf("%s p=%d k=%d", comp.name, p, k),
					Config:   comp.config(o, k, seed+1),
					Workload: sub,
				})
			cells = append(cells, cell{pi, ki})
		}
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, nil, ratioExtremes{}, err
	}

	headers := []string{"threads"}
	series := make([]report.Series, len(o.HBMSlots))
	for ki, k := range o.HBMSlots {
		headers = append(headers, fmt.Sprintf("ratio@k=%d", k))
		series[ki].Name = fmt.Sprintf("k=%d", k)
	}
	tbl := report.NewTable(
		fmt.Sprintf("%s makespan / %s makespan on %s (q=%d)", base.name, comp.name, wl.Name, o.Channels),
		headers...)

	ratios := make([][]float64, len(o.Threads))
	for i := range ratios {
		ratios[i] = make([]float64, len(o.HBMSlots))
	}
	ext := ratioExtremes{min: ratioPoint{ratio: 1}, max: ratioPoint{ratio: 1}}
	first := true
	for i, c := range cells {
		baseRes := rows[2*i].Result
		compRes := rows[2*i+1].Result
		r := float64(baseRes.Makespan) / float64(compRes.Makespan)
		ratios[c.pi][c.ki] = r
		p := o.Threads[c.pi]
		series[c.ki].X = append(series[c.ki].X, float64(p))
		series[c.ki].Y = append(series[c.ki].Y, r)
		pt := ratioPoint{ratio: r, threads: p, k: o.HBMSlots[c.ki]}
		if first || r < ext.min.ratio {
			ext.min = pt
		}
		if first || r > ext.max.ratio {
			ext.max = pt
		}
		first = false
	}
	for pi, p := range o.Threads {
		rowCells := make([]any, 0, 1+len(o.HBMSlots))
		rowCells = append(rowCells, p)
		for ki := range o.HBMSlots {
			rowCells = append(rowCells, ratios[pi][ki])
		}
		tbl.AddRow(rowCells...)
	}
	return tbl, series, ext, nil
}

// ratioPoint locates one extreme ratio.
type ratioPoint struct {
	ratio   float64
	threads int
	k       int
}

// ratioExtremes carries the grid's extreme ratios.
type ratioExtremes struct{ min, max ratioPoint }

func (e ratioExtremes) headline(baseName, compName string) string {
	return fmt.Sprintf("%s/%s ratio spans %.2fx (p=%d, k=%d) to %.2fx (p=%d, k=%d); >1 favours %s",
		baseName, compName,
		e.min.ratio, e.min.threads, e.min.k,
		e.max.ratio, e.max.threads, e.max.k,
		compName)
}
