package core

import (
	"math/rand/v2"
	"testing"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/regress"
	"github.com/tapas-sim/tapas/internal/thermal"
)

func buildTestProfiles(t *testing.T) (*layout.Datacenter, *Profiles) {
	t.Helper()
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfiles(dc)
	if err != nil {
		t.Fatal(err)
	}
	return dc, prof
}

func TestBuildProfilesInletAccuracy(t *testing.T) {
	dc, prof := buildTestProfiles(t)
	rng := rand.New(rand.NewPCG(21, 21))
	var pred, actual []float64
	for i := 0; i < 300; i++ {
		o := rng.Float64()*38 - 2
		l := rng.Float64()
		srv := dc.Servers[rng.IntN(len(dc.Servers))]
		pred = append(pred, prof.Inlet.Predict(srv.ID, o, l))
		actual = append(actual, thermal.InletTemp(srv, o, l, 0))
	}
	if mae := regress.MAE(pred, actual); mae > 1.0 {
		t.Errorf("profiled inlet MAE = %.3f °C, want < 1 (paper §5.1)", mae)
	}
}

func TestBuildProfilesGPUTempAccuracy(t *testing.T) {
	dc, prof := buildTestProfiles(t)
	rng := rand.New(rand.NewPCG(22, 22))
	var pred, actual []float64
	for i := 0; i < 500; i++ {
		srv := dc.Servers[rng.IntN(len(dc.Servers))]
		g := rng.IntN(srv.GPU.GPUsPerServer)
		inlet := 18 + rng.Float64()*14
		frac := rng.Float64()
		pred = append(pred, prof.GPUTemp.Predict(srv.ID, g, inlet, frac))
		actual = append(actual, thermal.GPUTemp(srv, g, inlet, frac))
	}
	if mae := regress.MAE(pred, actual); mae > 1.0 {
		t.Errorf("profiled GPU temp MAE = %.3f °C, want < 1 (paper Fig. 7)", mae)
	}
}

func TestBuildProfilesAirflowAndPower(t *testing.T) {
	dc, prof := buildTestProfiles(t)
	spec := layout.Spec(dc.Config.GPU)
	for _, l := range []float64{0, 0.3, 0.7, 1} {
		wantAF := thermal.Airflow(&spec, l)
		if got := prof.AirflowFor(spec.Model).Predict(l); got < wantAF-20 || got > wantAF+20 {
			t.Errorf("airflow at load %v = %v, want ≈ %v", l, got, wantAF)
		}
		wantP := power.ServerPowerAtUniformLoad(&spec, l)
		if got := prof.PowerFor(spec.Model).Predict(l); got < wantP-150 || got > wantP+150 {
			t.Errorf("power at load %v = %v, want ≈ %v", l, got, wantP)
		}
	}
}

func TestProfilesDistinguishServers(t *testing.T) {
	dc, prof := buildTestProfiles(t)
	// Two servers with different heterogeneity must get different inlet
	// predictions — the model is per-server, not fleet-wide.
	hot, cold := -1, -1
	for _, srv := range dc.Servers {
		if hot == -1 || srv.InletOffsetC > dc.Servers[hot].InletOffsetC {
			hot = srv.ID
		}
		if cold == -1 || srv.InletOffsetC < dc.Servers[cold].InletOffsetC {
			cold = srv.ID
		}
	}
	if prof.Inlet.Predict(hot, 25, 0.5) <= prof.Inlet.Predict(cold, 25, 0.5) {
		t.Error("per-server inlet models must reflect spatial heterogeneity")
	}
}

// TestBuildProfilesAllocs pins the fit's cost: the shared designs and the
// airflow and power fits take a constant number of allocations per layout,
// and each server adds three for its inlet surface (pieces, weights and the
// gathered segment targets), never one per sample.
func TestBuildProfilesAllocs(t *testing.T) {
	const perLayout, perServer = 256, 3
	for _, cfg := range []layout.Config{layout.SmallConfig(), layout.DefaultConfig()} {
		dc, err := layout.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := BuildProfiles(dc); err != nil {
				t.Fatal(err)
			}
		})
		if limit := perLayout + perServer*len(dc.Servers); allocs > float64(limit) {
			t.Errorf("%s (%d servers): BuildProfiles made %.0f allocations, want at most %d",
				cfg.Name, len(dc.Servers), allocs, limit)
		}
	}
}
