package core

import (
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
)

func TestMigratorMovesHotSaaSVM(t *testing.T) {
	st, prof := newComponentState(t)
	mig := newMigrator(prof)

	// Find the server with the hottest GPU response and a cool alternative.
	hot, cool := -1, -1
	hotGain, coolGain := 0.0, 1e9
	for _, srv := range st.DC.Servers {
		hi := 0.0
		for _, g := range srv.GPUTempGainC {
			if g > hi {
				hi = g
			}
		}
		if hi > hotGain {
			hotGain, hot = hi, srv.ID
		}
		if hi < coolGain {
			coolGain, cool = hi, srv.ID
		}
	}
	_ = cool
	// Place a SaaS VM on the hottest server and make it look busy/hot.
	var vm *cluster.VM
	for i, v := range st.VMs {
		if v.Spec.Kind == trace.SaaS {
			if err := st.Place(i, hot); err != nil {
				t.Fatal(err)
			}
			vm = v
			break
		}
	}
	st.ServerInletC[hot] = 28
	fracs := st.GPUFracs(hot)
	for g := range fracs {
		fracs[g] = 0.95
	}
	st.Now = time.Hour

	moves := mig.step(st)
	if moves != 1 {
		t.Fatalf("migrations = %d, want 1", moves)
	}
	if vm.Server == hot {
		t.Fatal("VM still on the hottest server")
	}
	if vm.Instance == nil {
		t.Fatal("instance lost across migration")
	}
	if st.ServerVM[hot] != -1 {
		t.Fatal("old server not freed")
	}
	if st.ServerVM[vm.Server] != vm.Spec.ID {
		t.Fatal("new server binding inconsistent")
	}
	if st.ServerInst[vm.Server] != vm.Instance {
		t.Error("ServerInst does not hold the moved instance at the target")
	}
	if st.ServerInst[hot] != nil {
		t.Error("ServerInst still holds an instance at the source")
	}
}

// TestMigratorRehostsAcrossGenerations moves a SaaS VM from a hot A100
// server to an H100 server, the only free ones left: its instance must then
// describe the H100 it runs on (spec, rates, GPU power fractions) while
// keeping its configuration and queued work.
func TestMigratorRehostsAcrossGenerations(t *testing.T) {
	cfg := layout.SmallConfig()
	cfg.Aisles, cfg.MixGPU, cfg.MixFraction = 2, layout.H100, 0.5
	dc, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: len(dc.Servers), SaaSFraction: 0.5,
		Duration: 24 * time.Hour, Endpoints: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := cluster.NewState(dc, w)
	st.Tick = time.Minute
	prof, err := BuildProfiles(dc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.ServerInletC {
		st.ServerInletC[i] = 24
		st.ServerPowerW[i] = 2000
	}
	// The hottest A100 server hosts a SaaS VM; every other A100 server is
	// occupied, so the only targets are H100 servers.
	hot, hotGain := -1, 0.0
	for _, srv := range dc.Servers {
		if srv.GPU.Model != layout.A100 {
			continue
		}
		for _, g := range srv.GPUTempGainC {
			if g > hotGain {
				hotGain, hot = g, srv.ID
			}
		}
	}
	next := 0
	var vm *cluster.VM
	for _, srv := range dc.Servers {
		if srv.GPU.Model != layout.A100 {
			continue
		}
		for ; next < len(st.VMs); next++ {
			if v := st.VMs[next]; srv.ID != hot || v.Spec.Kind == trace.SaaS {
				break
			}
		}
		if next == len(st.VMs) {
			t.Fatal("workload too small to fill the A100 servers")
		}
		if err := st.Place(next, srv.ID); err != nil {
			t.Fatal(err)
		}
		if srv.ID == hot {
			vm = st.VMs[next]
		}
		next++
	}
	in := vm.Instance
	in.EnqueueBulk(5000, 1000)
	cfgBefore, queued := in.Config, in.QueueTokens()
	st.ServerInletC[hot] = 28
	for g := range st.GPUFracs(hot) {
		st.GPUFracs(hot)[g] = 0.95
	}
	st.Now = time.Hour

	mig := newMigrator(prof)
	if moves := mig.step(st); moves != 1 {
		t.Fatalf("migrations = %d, want 1", moves)
	}
	target := st.ServerGPUSpec(vm.Server)
	if target.Model != layout.H100 {
		t.Fatalf("VM moved to a %v server, want H100 (the only free ones)", target.Model)
	}
	if vm.Instance != in {
		t.Fatal("migration replaced the instance instead of moving it")
	}
	if in.Spec.Model != layout.H100 {
		t.Errorf("instance still describes %v hardware after moving to an H100 server", in.Spec.Model)
	}
	fresh := llm.NewInstance(*target, in.Config, in.Work, in.SLOs)
	if in.PrefillRate() != fresh.PrefillRate() || in.DecodeRate() != fresh.DecodeRate() {
		t.Errorf("rates after the move = (%v, %v), want the H100's (%v, %v)",
			in.PrefillRate(), in.DecodeRate(), fresh.PrefillRate(), fresh.DecodeRate())
	}
	if got, want := in.GPUPowerFrac(), fresh.GPUPowerFrac(); got != want {
		t.Errorf("idle GPU power fraction after the move = %v, want the H100's %v", got, want)
	}
	if in.Config != cfgBefore || in.QueueTokens() != queued {
		t.Errorf("move changed config %v → %v or queue %v → %v", cfgBefore, in.Config, queued, in.QueueTokens())
	}
}

func TestMigratorRateLimits(t *testing.T) {
	st, prof := newComponentState(t)
	mig := newMigrator(prof)
	st.Now = time.Hour
	_ = mig.step(st) // sets lastRun
	st.Now = time.Hour + time.Minute
	if got := mig.step(st); got != 0 {
		t.Errorf("migrator ran again %v after the last round, want interval gating", time.Minute)
	}
}

func TestMigratorNeverMovesIaaS(t *testing.T) {
	st, prof := newComponentState(t)
	mig := newMigrator(prof)
	// Put an IaaS VM on the hottest server, fully loaded.
	hot := 0
	hotGain := 0.0
	for _, srv := range st.DC.Servers {
		for _, g := range srv.GPUTempGainC {
			if g > hotGain {
				hotGain, hot = g, srv.ID
			}
		}
	}
	var vmID int
	for i, v := range st.VMs {
		if v.Spec.Kind == trace.IaaS {
			if err := st.Place(i, hot); err != nil {
				t.Fatal(err)
			}
			vmID = i
			break
		}
	}
	st.ServerInletC[hot] = 30
	fracs := st.GPUFracs(hot)
	for g := range fracs {
		fracs[g] = 1
	}
	st.Now = time.Hour
	if got := mig.step(st); got != 0 {
		t.Errorf("migrator moved an IaaS VM (%d moves)", got)
	}
	if st.VMs[vmID].Server != hot {
		t.Error("IaaS VM relocated; live GPU migration is unsupported (§4.1)")
	}
}

func TestMigrationsInFullRun(t *testing.T) {
	// In a full TAPAS run migrations must not break invariants; count is
	// scenario dependent and may be zero when placement is already good.
	pol := NewFull()
	sc := sim.SmallScenario()
	sc.Duration = 2 * time.Hour
	res, err := sim.Run(sc, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServiceRate() < 0.99 {
		t.Errorf("service rate %.3f degraded with migration enabled", res.ServiceRate())
	}
	if pol.Migrations < 0 {
		t.Fatal("negative migration count")
	}
}
