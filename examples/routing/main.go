// Routing: watch TAPAS's thermal/power-aware request routing (§4.2) steer
// SaaS demand between the two rows of a small cluster as their power and
// temperature conditions diverge. The observer samples, per tick, how much
// SaaS power each row carries under both policies.
package main

import (
	"fmt"
	"log"
	"time"

	tapas "github.com/tapas-sim/tapas"
	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/trace"
)

func main() {
	type sample struct{ row0, row1, maxT float64 }
	runWith := func(pol tapas.Policy) []sample {
		var out []sample
		sc := tapas.RealClusterScenario()
		sc.Duration = 30 * time.Minute
		sc.Observer = func(st *cluster.State) {
			var s sample
			for _, srv := range st.DC.Servers {
				vmID := st.ServerVM[srv.ID]
				if vmID == -1 || st.VMs[vmID].Spec.Kind != trace.SaaS {
					continue
				}
				if srv.Row == 0 {
					s.row0 += st.ServerPowerW[srv.ID]
				} else {
					s.row1 += st.ServerPowerW[srv.ID]
				}
			}
			for _, tc := range st.ServerHotGPUTempC {
				if tc > s.maxT {
					s.maxT = tc
				}
			}
			out = append(out, s)
		}
		if _, err := tapas.Run(sc, pol); err != nil {
			log.Fatal(err)
		}
		return out
	}

	for _, mk := range []func() tapas.Policy{tapas.NewBaseline, tapas.NewTAPAS} {
		pol := mk()
		samples := runWith(pol)
		fmt.Printf("%s — SaaS power per row (kW) and max GPU temp:\n", pol.Name())
		fmt.Printf("%6s %10s %10s %10s %10s\n", "minute", "row0-SaaS", "row1-SaaS", "imbalance", "maxT")
		for i := 4; i < len(samples); i += 5 {
			s := samples[i]
			imb := s.row0 - s.row1
			if imb < 0 {
				imb = -imb
			}
			fmt.Printf("%6d %10.1f %10.1f %10.1f %9.1f°\n",
				i+1, s.row0/1000, s.row1/1000, imb/1000, s.maxT)
		}
		fmt.Println()
	}
	fmt.Println("TAPAS's router filters instances at risk of violating row power,")
	fmt.Println("aisle airflow or server temperature limits, then consolidates and")
	fmt.Println("spreads by headroom — flattening the per-row SaaS footprint.")
}
