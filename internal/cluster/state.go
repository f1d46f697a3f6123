// Package cluster holds the mutable state of a simulated GPU cluster: which
// VM occupies which server, the SaaS instances running on those VMs, and the
// live telemetry (temperatures, power, airflow) that the simulator refreshes
// every tick and that scheduling policies consume.
//
// Policies must only read the telemetry and learned models reachable from
// State — never the layout heterogeneity ground truth.
package cluster

import (
	"fmt"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/trace"
)

// VM is a placed (or pending) GPU VM.
type VM struct {
	Spec     trace.VMSpec
	Server   int           // -1 while unplaced
	Instance *llm.Instance // non-nil for placed SaaS VMs
}

// HistoryRes is the sensor aggregation interval (the paper's 10-minute
// reporting granularity).
const HistoryRes = 10 * time.Minute

// HistoryMaxSamples bounds the rolling histories to four weeks at HistoryRes.
const HistoryMaxSamples = 4 * 7 * 24 * 6

// State is the live cluster.
type State struct {
	DC *layout.Datacenter
	// Spec is the base hardware generation (Config.GPU). Heterogeneous
	// fleets carry per-server specs; use ServerGPUSpec/ProfileFor for
	// anything that differs across generations (TDP, idle power, serving
	// profile). The thermal throttle threshold is uniform across supported
	// generations, so policies may read Spec.ThrottleTempC directly.
	Spec   layout.GPUSpec
	Work   *trace.Workload
	SLOs   llm.SLOs
	Budget *power.Budget

	// profiles holds every generation's shared serving profile
	// (llm.DefaultProfile), the base generation's too when no server
	// carries it: SLOs and the per-VM capacity come from it. ServerGPUSpec
	// and ProfileFor find a server's generation in the layout's server
	// index (DC.ServerModel).
	profiles [layout.GPUModelCount]*llm.Profile

	VMs      []*VM
	ServerVM []int // server → VM index, or -1
	// ServerInst is each server's serving instance: its SaaS VM's Instance,
	// nil for free and IaaS servers. Place, Remove and Move keep it in step
	// with VM.Instance, so the tick kernel reads a server's instance
	// without loading its VM.
	ServerInst []*llm.Instance

	// Telemetry, refreshed by the simulator each tick. Now is the
	// simulation clock (governs VM arrivals/lifetimes); Wall additionally
	// includes the scenario's time-of-day offset and drives load patterns.
	Now              time.Duration
	Wall             time.Duration
	Tick             time.Duration
	OutsideC         float64
	DCLoadFrac       float64
	ServerInletC     []float64
	ServerPowerW     []float64
	ServerLoadFrac   []float64
	ServerAirflowCFM []float64
	ServerFreqCap    []float64 // 1 = uncapped; lowered by capping
	// GPUPowerFrac is flat per-GPU telemetry indexed server*GPUsPerServer +
	// gpu; use GPUFracs for the per-server view. The flat layout keeps the
	// simulator's fleet sweeps on contiguous memory instead of a
	// slice-of-slices pointer chase.
	GPUPowerFrac []float64
	// ServerHotGPUTempC is each server's hottest GPU temperature, the only
	// GPU temperature the tick kernel publishes: policies gate risk on it.
	ServerHotGPUTempC []float64
	GPUsPerServer     int
	RowPowerW         []float64
	AisleDemandCFM    []float64
	AisleRecircC      []float64
	// AirflowLimitFrac scales provisioned aisle airflow (0.9 during a
	// cooling emergency).
	AirflowLimitFrac float64

	// RowOccEpoch counts placements, removals and moves per row. The TAPAS
	// allocator compares epochs across calls to prove a row's occupancy is
	// unchanged and reuse its cached sums; anything that binds or unbinds
	// VMs goes through Place/Remove/Move, so the counter is exact.
	RowOccEpoch []uint64

	// RowPowerHist is each row's rolling power history at HistoryRes,
	// oldest sample first, holding at most the newest HistoryMaxSamples;
	// the allocator's hour-of-week row templates (power.BuildTemplate) read
	// it.
	RowPowerHist [][]float64
	// CustomerPeakLoad tracks the observed peak GPU load fraction per IaaS
	// customer; EndpointPeakPerVM tracks peak per-VM token demand per
	// endpoint. Placement uses these as the "same user / same endpoint"
	// estimates of §4.1. Write them only through SeedHistory,
	// ObserveCustomerLoad and ObserveEndpointDemand, which bump PeakEpoch.
	CustomerPeakLoad  map[int]float64
	EndpointPeakPerVM map[int]float64
	// PeakEpoch counts changes to the two peak maps above, so a consumer
	// that caches EstimateVMPeakLoad results can tell when they went stale.
	PeakEpoch uint64
	// customerPeak mirrors CustomerPeakLoad densely for IaaS customer IDs
	// below the VM count (IDs are trace labels; larger ones take the map
	// path): ObserveCustomerLoad runs per IaaS server per tick and the map
	// lookup dominated it. The map stays the source external readers see;
	// the mirror only short-circuits the no-new-peak common case.
	customerPeak []float64

	histAccum time.Duration

	// Incremental indexes maintained by Place/Remove/Move so the per-tick
	// queries below are lookups rather than full-VM scans.
	epInstances [][]*VM // endpoint → placed serving VMs, ascending VM ID
	rowIaaS     []int   // row → placed IaaS VM count
	rowSaaS     []int   // row → placed SaaS VM count
	freeCount   int
}

// NewState initializes cluster state for a datacenter and workload around
// each generation's shared serving profile (llm.DefaultProfile).
func NewState(dc *layout.Datacenter, w *trace.Workload) *State {
	spec := layout.Spec(dc.Config.GPU)
	n := len(dc.Servers)
	st := &State{
		DC:     dc,
		Spec:   spec,
		Work:   w,
		Budget: power.NewBudget(dc),

		ServerVM:          make([]int, n),
		ServerInst:        make([]*llm.Instance, n),
		ServerInletC:      make([]float64, n),
		ServerPowerW:      make([]float64, n),
		ServerLoadFrac:    make([]float64, n),
		ServerAirflowCFM:  make([]float64, n),
		ServerFreqCap:     make([]float64, n),
		GPUPowerFrac:      make([]float64, n*spec.GPUsPerServer),
		ServerHotGPUTempC: make([]float64, n),
		GPUsPerServer:     spec.GPUsPerServer,
		RowPowerW:         make([]float64, len(dc.Rows)),
		AisleDemandCFM:    make([]float64, len(dc.Aisles)),
		AisleRecircC:      make([]float64, len(dc.Aisles)),
		AirflowLimitFrac:  1,

		RowOccEpoch:       make([]uint64, len(dc.Rows)),
		RowPowerHist:      make([][]float64, len(dc.Rows)),
		CustomerPeakLoad:  make(map[int]float64),
		EndpointPeakPerVM: make(map[int]float64),

		rowIaaS:   make([]int, len(dc.Rows)),
		rowSaaS:   make([]int, len(dc.Rows)),
		freeCount: n,
	}
	for i := range st.ServerVM {
		st.ServerVM[i] = -1
		st.ServerFreqCap[i] = 1
	}
	for m := range st.profiles {
		st.profiles[m] = llm.DefaultProfile(layout.GPUModel(m))
	}
	st.SLOs = st.profiles[spec.Model].SLOs
	if w != nil {
		st.VMs = make([]*VM, len(w.VMs))
		maxCustomer := -1
		for i := range w.VMs {
			st.VMs[i] = &VM{Spec: w.VMs[i], Server: -1}
			if c := w.VMs[i].Customer; w.VMs[i].Kind == trace.IaaS && c > maxCustomer && c < len(w.VMs) {
				maxCustomer = c
			}
		}
		st.epInstances = make([][]*VM, len(w.Endpoints))
		st.customerPeak = make([]float64, maxCustomer+1)
	}
	return st
}

// Place binds a VM to a free server; SaaS VMs get a serving instance at the
// default configuration.
func (st *State) Place(vmID, serverID int) error {
	if vmID < 0 || vmID >= len(st.VMs) {
		return fmt.Errorf("cluster: VM %d out of range", vmID)
	}
	if serverID < 0 || serverID >= len(st.ServerVM) {
		return fmt.Errorf("cluster: server %d out of range", serverID)
	}
	if st.ServerVM[serverID] != -1 {
		return fmt.Errorf("cluster: server %d already hosts VM %d", serverID, st.ServerVM[serverID])
	}
	vm := st.VMs[vmID]
	if vm.Server != -1 {
		return fmt.Errorf("cluster: VM %d already placed on server %d", vmID, vm.Server)
	}
	vm.Server = serverID
	st.ServerVM[serverID] = vmID
	st.freeCount--
	row := st.DC.ServerRow[serverID]
	st.RowOccEpoch[row]++
	if vm.Spec.Kind == trace.SaaS {
		st.rowSaaS[row]++
		ep := st.Work.Endpoints[vm.Spec.Endpoint]
		vm.Instance = llm.NewInstance(st.DC.Servers[serverID].GPU, llm.DefaultConfig(), ep.Work, st.SLOs)
		st.ServerInst[serverID] = vm.Instance
		st.indexEndpointVM(vm)
	} else {
		st.rowIaaS[row]++
	}
	return nil
}

// Remove unbinds a VM from its server (VM departure).
func (st *State) Remove(vmID int) {
	vm := st.VMs[vmID]
	if vm.Server >= 0 {
		row := st.DC.ServerRow[vm.Server]
		st.RowOccEpoch[row]++
		if vm.Spec.Kind == trace.SaaS {
			st.rowSaaS[row]--
			st.unindexEndpointVM(vm)
		} else {
			st.rowIaaS[row]--
		}
		st.ServerVM[vm.Server] = -1
		st.ServerInst[vm.Server] = nil
		st.ServerFreqCap[vm.Server] = 1
		st.freeCount++
		vm.Server = -1
	}
	vm.Instance = nil
}

// Move rebinds a placed SaaS VM and its serving instance to a free server
// (§4.1 migration). The instance keeps its configuration, queues and
// affinity and re-derives its rates from the target's GPU generation. The
// source server's frequency cap resets, as on Remove, and both rows'
// RowOccEpoch advance. On error nothing changes.
func (st *State) Move(vmID, serverID int) error {
	if vmID < 0 || vmID >= len(st.VMs) {
		return fmt.Errorf("cluster: VM %d out of range", vmID)
	}
	if serverID < 0 || serverID >= len(st.ServerVM) {
		return fmt.Errorf("cluster: server %d out of range", serverID)
	}
	vm := st.VMs[vmID]
	if vm.Spec.Kind != trace.SaaS || vm.Server == -1 {
		return fmt.Errorf("cluster: VM %d is not a placed SaaS VM", vmID)
	}
	if st.ServerVM[serverID] != -1 {
		return fmt.Errorf("cluster: server %d already hosts VM %d", serverID, st.ServerVM[serverID])
	}
	from := vm.Server
	fromRow, toRow := st.DC.ServerRow[from], st.DC.ServerRow[serverID]
	st.RowOccEpoch[fromRow]++
	st.RowOccEpoch[toRow]++
	st.rowSaaS[fromRow]--
	st.rowSaaS[toRow]++
	st.ServerVM[from], st.ServerInst[from] = -1, nil
	st.ServerFreqCap[from] = 1
	st.ServerVM[serverID], st.ServerInst[serverID] = vmID, vm.Instance
	vm.Server = serverID
	vm.Instance.Rehost(st.DC.Servers[serverID].GPU)
	return nil
}

// indexEndpointVM inserts a freshly placed SaaS VM into its endpoint's
// instance list, keeping ascending-VM-ID order so consumers iterate in the
// same order the previous full scan produced.
func (st *State) indexEndpointVM(vm *VM) {
	insts := st.epInstances[vm.Spec.Endpoint]
	pos := len(insts)
	for pos > 0 && insts[pos-1].Spec.ID > vm.Spec.ID {
		pos--
	}
	insts = append(insts, nil)
	copy(insts[pos+1:], insts[pos:])
	insts[pos] = vm
	st.epInstances[vm.Spec.Endpoint] = insts
}

func (st *State) unindexEndpointVM(vm *VM) {
	insts := st.epInstances[vm.Spec.Endpoint]
	for i, v := range insts {
		if v == vm {
			copy(insts[i:], insts[i+1:])
			st.epInstances[vm.Spec.Endpoint] = insts[:len(insts)-1]
			return
		}
	}
}

// NumFree returns the number of unoccupied servers.
func (st *State) NumFree() int { return st.freeCount }

// RowMix counts placed IaaS and SaaS VMs in a row.
func (st *State) RowMix(row int) (iaas, saas int) {
	return st.rowIaaS[row], st.rowSaaS[row]
}

// EndpointInstances returns the placed, serving VMs of an endpoint in
// ascending VM-ID order. The returned slice is owned by the State and valid
// until the next Place or Remove; callers must not mutate or retain it.
func (st *State) EndpointInstances(endpoint int) []*VM {
	if endpoint < 0 || endpoint >= len(st.epInstances) {
		return nil
	}
	return st.epInstances[endpoint]
}

// ProfileFor returns the serving profile of a server's GPU generation.
func (st *State) ProfileFor(server int) *llm.Profile {
	return st.profiles[st.DC.ServerModel[server]]
}

// ServerGPUSpec returns a server's published hardware specification (TDP,
// idle power, clock range): its generation's layout.Spec, which every
// server of that generation carries and its serving profile was built on.
// Published specs are fair game for policies — unlike the per-server
// thermal heterogeneity, which stays hidden behind profiled sensor data.
// The spec is shared and must not be modified.
func (st *State) ServerGPUSpec(server int) *layout.GPUSpec {
	return &st.profiles[st.DC.ServerModel[server]].Spec
}

// GPUFracs returns the per-GPU power fractions of one server as a subslice
// of the flat telemetry array.
func (st *State) GPUFracs(server int) []float64 {
	i := server * st.GPUsPerServer
	return st.GPUPowerFrac[i : i+st.GPUsPerServer]
}

// SeedHistory installs precomputed "previous week" demand estimates (§3.1):
// per-customer peak IaaS load and per-endpoint peak per-VM token demand. The
// maps are copied, so a compiled scenario can hand the same seeds to many
// concurrent runs.
func (st *State) SeedHistory(customerPeak, endpointPeak map[int]float64) {
	for c, v := range customerPeak {
		st.CustomerPeakLoad[c] = v
		// The seed replaces the estimate, so the mirror follows it down too:
		// a mirror left above the map would swallow new peaks in between.
		if c >= 0 && c < len(st.customerPeak) {
			st.customerPeak[c] = v
		}
	}
	for e, v := range endpointPeak {
		st.EndpointPeakPerVM[e] = v
	}
	st.PeakEpoch++
}

// AisleLimitCFM returns the effective provisioned airflow of an aisle under
// the current cooling-emergency factor.
func (st *State) AisleLimitCFM(aisle int) float64 {
	return st.DC.Aisles[aisle].ProvAirflowCFM * st.AirflowLimitFrac
}

// RecordHistory appends the current telemetry to the rolling history when a
// full HistoryRes interval has elapsed. Histories are bounded to four weeks.
func (st *State) RecordHistory(dt time.Duration) {
	st.histAccum += dt
	if st.histAccum < HistoryRes {
		return
	}
	st.histAccum = 0
	for r, h := range st.RowPowerHist {
		h = append(h, st.RowPowerW[r])
		if len(h) > HistoryMaxSamples {
			// Reslicing drops the oldest sample; append copies the window
			// to a new array only once the stranded front has used up the
			// spare capacity, so recording stays amortized O(1).
			h = h[1:]
		}
		st.RowPowerHist[r] = h
	}
}

// ObserveCustomerLoad updates the per-customer peak IaaS load estimate.
func (st *State) ObserveCustomerLoad(customer int, loadFrac float64) {
	if customer >= 0 && customer < len(st.customerPeak) {
		// Dense fast path: an absent map entry compares as 0, which is
		// exactly what an untouched mirror slot holds, so the no-new-peak
		// common case never reaches the map.
		if loadFrac <= st.customerPeak[customer] {
			return
		}
		st.customerPeak[customer] = loadFrac
	}
	if loadFrac > st.CustomerPeakLoad[customer] {
		st.CustomerPeakLoad[customer] = loadFrac
		st.PeakEpoch++
	}
}

// ObserveEndpointDemand updates the per-endpoint peak per-VM token demand.
func (st *State) ObserveEndpointDemand(endpoint int, perVMTokens float64) {
	if perVMTokens > st.EndpointPeakPerVM[endpoint] {
		st.EndpointPeakPerVM[endpoint] = perVMTokens
		st.PeakEpoch++
	}
}

// EstimateVMPeakLoad predicts the peak GPU load fraction a new VM will
// impose, using same-customer / same-endpoint history and assuming peak
// when history is insufficient (§4.1).
func (st *State) EstimateVMPeakLoad(spec trace.VMSpec) float64 {
	if spec.Kind == trace.IaaS {
		if peak, ok := st.CustomerPeakLoad[spec.Customer]; ok {
			return peak
		}
		return 1
	}
	if peak, ok := st.EndpointPeakPerVM[spec.Endpoint]; ok {
		cap := capacityTokensPerSec(st)
		if cap > 0 {
			f := peak / cap
			if f > 1 {
				f = 1
			}
			return f
		}
	}
	return 1
}

// capacityTokensPerSec is the base generation's per-VM token goodput at the
// default serving configuration, the capacity a SaaS VM's peak demand is
// measured against.
func capacityTokensPerSec(st *State) float64 {
	e, ok := st.profiles[st.Spec.Model].Entry(llm.DefaultConfig())
	if !ok {
		return 0
	}
	return e.Goodput
}
