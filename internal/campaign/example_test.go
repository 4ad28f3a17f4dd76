package campaign_test

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// ExampleSweep_Run sweeps a grid of problem sizes and error rates and
// reads the per-cell detection coverage off the aggregate report.
func ExampleSweep_Run() {
	s := &campaign.Sweep{
		Ns:            []int{96, 126},
		Lambdas:       []float64{0.5, 1.5},
		NBs:           []int{16},
		Regions:       []fault.Region{fault.RegionAll},
		TrialsPerCell: 3,
		Seed:          7,
		Workers:       4,
	}
	rep, err := s.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("cells=%d trials=%d silent-corrupt=%d\n",
		len(rep.Cells), rep.TotalTrials, rep.Outcome(campaign.SilentCorrupt))
	// Output: cells=4 trials=12 silent-corrupt=0
}
