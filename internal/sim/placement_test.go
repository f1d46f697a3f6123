package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/layout"
)

// TestPlacementGolden pins every TAPAS placement decision on three
// fleet-scale layouts: the paper fleet at 5x aisles (the fleet-day layout),
// the same fleet oversubscribed by 20% (rows whose extra racks sit at the
// end of the server-ID space, so row order and ID order disagree), and a 5x
// fleet with half its aisles H100. Each runs one hour from the 9h diurnal
// peak. An FNV-64a hash of the server → VM binding, folded after every tick,
// sees each choice exactly, where rounded report columns may miss a single
// different server; the result fingerprint pins what the choices led to.
func TestPlacementGolden(t *testing.T) {
	fleets := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"paper-5x", func(*Scenario) {}},
		{"paper-5x-oversubscribed", func(sc *Scenario) { sc.Oversubscribe = 0.2 }},
		{"mixed-5x", func(sc *Scenario) {
			sc.Layout.MixGPU, sc.Layout.MixFraction = layout.H100, 0.5
		}},
	}
	var sb strings.Builder
	for _, fl := range fleets {
		sc := DefaultScenario()
		sc.Layout.FleetScale = 5
		sc.Duration = time.Hour
		sc.StartOffset = 9 * time.Hour
		fl.mutate(&sc)
		h := fnv.New64a()
		var buf [8]byte
		sc.Observer = func(st *cluster.State) {
			for _, vm := range st.ServerVM {
				binary.LittleEndian.PutUint64(buf[:], uint64(int64(vm)))
				h.Write(buf[:])
			}
		}
		cs, err := Compile(sc)
		if err != nil {
			t.Fatalf("%s: %v", fl.name, err)
		}
		res, err := cs.Run(core.NewFull())
		if err != nil {
			t.Fatalf("%s: %v", fl.name, err)
		}
		fmt.Fprintf(&sb, "== %s servers %d ==\nserverVM fnv64a %016x\n%s",
			fl.name, len(cs.DC.Servers), h.Sum64(), fingerprintResult(res))
	}
	matchGolden(t, filepath.Join("testdata", "placement_golden.txt"), sb.String())
}
