package core

import (
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/trace"
)

// migrator implements §4.1's migration: beyond initial placement, TAPAS
// periodically recalculates better placements for SaaS VMs — create a new
// VM, transfer the workload, decommission the old one — to correct
// mispredictions and workload drift. IaaS VMs are never migrated: live GPU
// VM migration is unsupported (§4.1).
type migrator struct {
	prof    *Profiles
	lastRun time.Duration
	// lastMove rate-limits per-VM churn.
	lastMove map[int]time.Duration
}

const (
	// migrationInterval bounds how often the placement recalculation runs.
	migrationInterval = 30 * time.Minute
	// migrationCooldown bounds how often one VM may move.
	migrationCooldown = 2 * time.Hour
	// migrationsPerRound bounds fleet churn per recalculation.
	migrationsPerRound = 4
	// migrationTempGain is the predicted hottest-GPU improvement (°C)
	// required to justify a move.
	migrationTempGain = 5.0
)

func newMigrator(prof *Profiles) *migrator {
	return &migrator{prof: prof, lastMove: map[int]time.Duration{}}
}

// step evaluates migration opportunities and executes up to
// migrationsPerRound moves (§4.1's create → transfer → decommission,
// collapsed to one tick at simulator granularity; cluster.State.Move carries
// the serving instance along with its queues and affinity state).
func (m *migrator) step(st *cluster.State) int {
	if st.Now-m.lastRun < migrationInterval {
		return 0
	}
	m.lastRun = st.Now
	moves := 0
	for _, vm := range st.VMs {
		if moves >= migrationsPerRound {
			break
		}
		if vm.Spec.Kind != trace.SaaS || vm.Server < 0 || vm.Instance == nil {
			continue
		}
		if vm.Instance.Reloading() {
			continue
		}
		if last, seen := m.lastMove[vm.Spec.ID]; seen && st.Now-last < migrationCooldown {
			continue
		}
		cur := vm.Server
		curTemp := m.hottestPredicted(st, cur)
		// Only consider VMs whose current server runs hot at its load.
		if curTemp < st.Spec.ThrottleTempC-migrationTempGain {
			continue
		}
		// Target: the warmest free server that still projects at least
		// migrationTempGain cooler than the current placement at this VM's
		// estimated load (still "SaaS on warm servers", just viable ones).
		ceiling := curTemp - migrationTempGain
		if lim := st.Spec.ThrottleTempC - tempMargin; lim < ceiling {
			ceiling = lim
		}
		target, ok := m.selectTarget(st, vm, ceiling)
		if !ok || target == cur {
			continue
		}
		if err := st.Move(vm.Spec.ID, target); err != nil {
			continue
		}
		m.lastMove[vm.Spec.ID] = st.Now
		moves++
	}
	return moves
}

// selectTarget returns the warmest free server whose projected hottest-GPU
// temperature at the VM's estimated load stays at or below ceiling.
func (m *migrator) selectTarget(st *cluster.State, vm *cluster.VM, ceiling float64) (int, bool) {
	estLoad := st.EstimateVMPeakLoad(vm.Spec)
	best, bestProj := -1, -1.0
	for id, occupant := range st.ServerVM {
		if occupant != -1 || id == vm.Server {
			continue
		}
		inlet := st.ServerInletC[id]
		proj := 0.0
		for g := 0; g < st.GPUsPerServer; g++ {
			if t := m.prof.GPUTemp.Predict(id, g, inlet, estLoad); t > proj {
				proj = t
			}
		}
		if proj <= ceiling && proj > bestProj {
			best, bestProj = id, proj
		}
	}
	return best, best != -1
}

// hottestPredicted returns the predicted hottest-GPU temperature of a server
// at its current observed power fractions and inlet.
func (m *migrator) hottestPredicted(st *cluster.State, server int) float64 {
	inlet := st.ServerInletC[server]
	hot := 0.0
	for g, frac := range st.GPUFracs(server) {
		if t := m.prof.GPUTemp.Predict(server, g, inlet, frac); t > hot {
			hot = t
		}
	}
	return hot
}
