package bench

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// Fig6Row is one matrix size of a Figure 6 panel: the baseline and
// fault-tolerant GFLOPS, the no-fault overhead, and the min/max overhead
// band over the injection moments (the paper's gray uncertainty area).
type Fig6Row struct {
	N               int
	BaseGFLOPS      float64
	FTGFLOPS        float64
	OverheadNoFault float64 // fraction
	OverheadMin     float64
	OverheadMax     float64
}

// Fig6Panel is one of the three sub-figures (one injection area).
type Fig6Panel struct {
	Area fault.Area
	Rows []Fig6Row
}

// Fig6 sweeps matrix sizes in cost-only mode (the substitution for the
// paper's wall-clock measurements; see DESIGN.md) and reports, per area,
// the baseline GFLOPS, FT GFLOPS, the overhead without failures, and the
// overhead band when one fault strikes at the beginning, middle, or end
// of the factorization.
func Fig6(w io.Writer, sizes []int, nb int, params sim.Params) []Fig6Panel {
	if nb <= 0 {
		nb = hybrid.DefaultNB
	}
	type base struct {
		baseSec, ftSec float64
		baseGF, ftGF   float64
	}
	bases := make(map[int]base)
	for _, n := range sizes {
		a := matrix.New(n, n) // cost-only: values never read
		b, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Device: gpu.New(params, gpu.CostOnly)})
		if err != nil {
			panic(err)
		}
		f, err := ft.Reduce(a, ft.Options{NB: nb, Device: gpu.New(params, gpu.CostOnly)})
		if err != nil {
			panic(err)
		}
		bases[n] = base{baseSec: b.SimSeconds, ftSec: f.SimSeconds, baseGF: b.ModelGFLOPS, ftGF: f.ModelGFLOPS}
	}

	var panels []Fig6Panel
	for _, area := range []fault.Area{fault.Area1, fault.Area2, fault.Area3} {
		panel := Fig6Panel{Area: area}
		for _, n := range sizes {
			bs := bases[n]
			row := Fig6Row{
				N:               n,
				BaseGFLOPS:      bs.baseGF,
				FTGFLOPS:        bs.ftGF,
				OverheadNoFault: (bs.ftSec - bs.baseSec) / bs.baseSec,
				OverheadMin:     1e30,
				OverheadMax:     -1e30,
			}
			for _, m := range []fault.Moment{fault.Beginning, fault.Middle, fault.End} {
				in := fault.New(fault.Plan{
					Area:       area,
					TargetIter: fault.IterForMoment(n, nb, m, area),
					Seed:       uint64(n) + uint64(m),
				})
				a := matrix.New(n, n)
				f, err := ft.Reduce(a, ft.Options{NB: nb, Device: gpu.New(params, gpu.CostOnly), Hook: in})
				if err != nil {
					panic(err)
				}
				ov := (f.SimSeconds - bs.baseSec) / bs.baseSec
				row.OverheadMin = min(row.OverheadMin, ov)
				row.OverheadMax = max(row.OverheadMax, ov)
			}
			panel.Rows = append(panel.Rows, row)
		}
		panels = append(panels, panel)
	}

	for _, p := range panels {
		fmt.Fprintf(w, "\nFigure 6 (%v) — nb=%d, single fault, overhead vs matrix size\n", p.Area, nb)
		fmt.Fprintf(w, "%8s %14s %14s %12s %22s\n", "N", "MAGMA GFLOPS", "FT GFLOPS", "ovhd none", "ovhd 1 fault [min,max]")
		for _, r := range p.Rows {
			fmt.Fprintf(w, "%8d %14.1f %14.1f %11.2f%% [%9.2f%%,%9.2f%%]\n",
				r.N, r.BaseGFLOPS, r.FTGFLOPS, 100*r.OverheadNoFault,
				100*r.OverheadMin, 100*r.OverheadMax)
		}
	}
	return panels
}
