package layout

import (
	"fmt"
	"math/rand/v2"
)

// Config describes a datacenter to generate. Aisles each contain two rows
// (Fig. 1); rows contain RacksPerRow racks of ServersPerRack servers.
type Config struct {
	Name           string
	Aisles         int
	RacksPerRow    int
	ServersPerRack int
	GPU            GPUModel
	Seed           uint64
	// MixGPU and MixFraction describe a heterogeneous fleet: the trailing
	// MixFraction of aisles (rounded to whole aisles) are built from MixGPU
	// servers instead of GPU. Hardware generations are homogeneous within an
	// aisle — operators roll out new generations aisle-by-aisle, and each
	// row's power envelope and each aisle's AHU provisioning are sized for
	// the hardware they feed. MixFraction 0 (the default) is a uniform
	// fleet.
	MixGPU      GPUModel
	MixFraction float64
	// FleetScale multiplies the aisle count at generation time (rounded to
	// the nearest whole aisle, floor 1): the hyperscale axis. A 10–100×
	// fleet keeps the preset's per-row/per-aisle topology, so power
	// envelopes and AHU provisioning stay at the shape the physics were
	// validated against — the datacenter just has more aisles. 0 (the
	// default) means 1× (the preset's size).
	FleetScale float64
}

const (
	// airflowMargin and powerMargin are the provisioning headroom over the
	// nominal aggregate peak (airflow per aisle, power per row). Operators
	// provision for peak load (§2.1, §2.2), so margins are small.
	airflowMargin = 0.03
	powerMargin   = 0.03
	// airflowDesignLoad is the server load fraction whose aggregate airflow
	// the AHUs are provisioned to sustain. AHUs are sized for the realistic
	// simultaneous peak, not for every fan at 100% — which never occurs
	// fleet-wide.
	airflowDesignLoad = 0.85
)

// DefaultConfig returns the cluster used by the paper's large-scale
// experiments: ~1000 A100 servers (13 aisles × 2 rows × 10 racks × 4
// servers = 1040).
func DefaultConfig() Config {
	return Config{
		Name:           "dc-east-1",
		Aisles:         13,
		RacksPerRow:    10,
		ServersPerRack: 4,
		GPU:            A100,
		Seed:           42,
	}
}

// SmallConfig returns the two-row, 80-server layout of the paper's real
// cluster experiment (§5.2).
func SmallConfig() Config {
	return Config{
		Name:           "dc-lab",
		Aisles:         1,
		RacksPerRow:    10,
		ServersPerRack: 4,
		GPU:            A100,
		Seed:           42,
	}
}

// Server is one GPU server. Heterogeneity fields are ground truth used by
// the thermal physics; scheduling policies must not read them directly.
type Server struct {
	ID      int
	Rack    int
	Row     int
	Aisle   int
	HeightU int // slot within the rack, 0 = bottom
	GPU     GPUSpec

	// InletOffsetC is the spatial inlet-temperature offset of this server
	// (row construction + rack position within row + height in rack).
	InletOffsetC float64
	// GPUTempGainC is, per GPU, the temperature rise above inlet at 100%
	// GPU power (process variation + position within the chassis; even
	// GPU numbers sit closer to the inlet and run cooler, §2.1).
	GPUTempGainC []float64
	// GPUTempBiasC is the per-GPU idle temperature offset above inlet.
	GPUTempBiasC []float64
}

// Rack is a vertical stack of servers.
type Rack struct {
	ID       int
	Row      int
	PosInRow int
	Servers  []*Server
}

// Row is a line of racks sharing one provisioned power envelope (fed by a
// PDU pair).
type Row struct {
	ID         int
	Aisle      int
	UPS        int
	Racks      []*Rack
	Servers    []*Server
	ProvPowerW float64
}

// Aisle is a contained cold aisle between two rows, fed by AHUs that must
// out-blow the aggregate server airflow demand (Eq. 3).
type Aisle struct {
	ID             int
	Rows           [2]*Row
	ProvAirflowCFM float64

	servers []*Server // memoized Servers() result
}

// Servers returns all servers in both rows of the aisle. The slice is
// memoized — schedulers call this in per-tick capping loops — so callers
// must treat it as read-only.
func (a *Aisle) Servers() []*Server {
	if a.servers == nil {
		out := make([]*Server, 0, len(a.Rows[0].Servers)+len(a.Rows[1].Servers))
		out = append(out, a.Rows[0].Servers...)
		a.servers = append(out, a.Rows[1].Servers...)
	}
	return a.servers
}

// UPS is one uninterruptible power supply in the 4N/3 redundancy group.
type UPS struct {
	ID   int
	Rows []int
}

// Datacenter is the generated physical plant.
type Datacenter struct {
	Config  Config
	Aisles  []*Aisle
	Rows    []*Row
	Racks   []*Rack
	Servers []*Server
	UPSes   []*UPS

	// ServerRow, ServerAisle and ServerModel are the server index: each
	// server's Row, Aisle and GPU.Model (a GPUModel in one byte) by server
	// ID, in flat tables. Code that runs per server or per instance every
	// tick reads them instead of loading the server's struct. New and
	// AddRacks fill them; they are read-only.
	ServerRow   []int32
	ServerAisle []int32
	ServerModel []uint8
}

// addServer appends a generated server to its rack, its row, the fleet and
// the server index.
func (dc *Datacenter) addServer(rack *Rack, row *Row, srv *Server) {
	rack.Servers = append(rack.Servers, srv)
	row.Servers = append(row.Servers, srv)
	dc.Servers = append(dc.Servers, srv)
	dc.ServerRow = append(dc.ServerRow, int32(srv.Row))
	dc.ServerAisle = append(dc.ServerAisle, int32(srv.Aisle))
	dc.ServerModel = append(dc.ServerModel, uint8(srv.GPU.Model))
}

// Models returns the distinct GPU models present in the fleet in GPUModel
// order (the base model first for uniform fleets).
func (dc *Datacenter) Models() []GPUModel {
	var present [GPUModelCount]bool
	for _, s := range dc.Servers {
		present[s.GPU.Model] = true
	}
	var out []GPUModel
	for m := GPUModel(0); m < GPUModelCount; m++ {
		if present[m] {
			out = append(out, m)
		}
	}
	return out
}

// Heterogeneous reports whether the fleet mixes GPU generations.
func (dc *Datacenter) Heterogeneous() bool { return len(dc.Models()) > 1 }

// mixAisles returns how many trailing aisles are built from MixGPU.
func (cfg Config) mixAisles() int {
	if cfg.MixFraction <= 0 || cfg.MixGPU == cfg.GPU {
		return 0
	}
	n := int(float64(cfg.Aisles)*cfg.MixFraction + 0.5)
	if n > cfg.Aisles {
		n = cfg.Aisles
	}
	return n
}

// aisleSpec returns the server spec an aisle is built from.
func (cfg Config) aisleSpec(aisle int) GPUSpec {
	if aisle >= cfg.Aisles-cfg.mixAisles() {
		return Spec(cfg.MixGPU)
	}
	return Spec(cfg.GPU)
}

// NumUPS is the UPS group size for 4N/3 redundancy (§2.2).
const NumUPS = 4

// New generates a datacenter from cfg. Generation is deterministic in
// cfg.Seed: the same seed always yields identical heterogeneity.
func New(cfg Config) (*Datacenter, error) {
	if cfg.Aisles <= 0 || cfg.RacksPerRow <= 0 || cfg.ServersPerRack <= 0 {
		return nil, fmt.Errorf("layout: non-positive dimensions in config %+v", cfg)
	}
	if cfg.FleetScale < 0 {
		return nil, fmt.Errorf("layout: negative fleet scale %v", cfg.FleetScale)
	}
	if cfg.FleetScale > 0 {
		cfg.Aisles = int(float64(cfg.Aisles)*cfg.FleetScale + 0.5)
		if cfg.Aisles < 1 {
			cfg.Aisles = 1
		}
	}
	if cfg.MixFraction < 0 || cfg.MixFraction > 1 {
		return nil, fmt.Errorf("layout: mix fraction %v out of [0,1]", cfg.MixFraction)
	}
	if cfg.mixAisles() > 0 && Spec(cfg.MixGPU).GPUsPerServer != Spec(cfg.GPU).GPUsPerServer {
		return nil, fmt.Errorf("layout: mixed models %v and %v differ in GPUs per server", cfg.GPU, cfg.MixGPU)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7a7a5))
	dc := &Datacenter{Config: cfg}
	for u := 0; u < NumUPS; u++ {
		dc.UPSes = append(dc.UPSes, &UPS{ID: u})
	}
	serverID, rackID := 0, 0
	for a := 0; a < cfg.Aisles; a++ {
		spec := cfg.aisleSpec(a)
		aisle := &Aisle{ID: a}
		for r := 0; r < 2; r++ {
			rowID := a*2 + r
			// Row-level construction offset: up to ~1 °C spread (Fig. 4).
			rowOffset := rng.Float64()*1.0 - 0.5
			row := &Row{ID: rowID, Aisle: a, UPS: rowID % NumUPS}
			for k := 0; k < cfg.RacksPerRow; k++ {
				rack := &Rack{ID: rackID, Row: rowID, PosInRow: k}
				rackID++
				// Rack position: racks far from the AHU run warmer, up to
				// ~2 °C within a row (Fig. 1, Fig. 4).
				posFrac := float64(k) / float64(max(cfg.RacksPerRow-1, 1))
				rackOffset := 1.4*posFrac*posFrac + rng.Float64()*0.6 - 0.3
				for h := 0; h < cfg.ServersPerRack; h++ {
					// Height has a minor impact (Fig. 4).
					heightOffset := (rng.Float64()*0.3 - 0.15) + 0.05*float64(h)
					srv := &Server{
						ID:           serverID,
						Rack:         rack.ID,
						Row:          rowID,
						Aisle:        a,
						HeightU:      h,
						GPU:          spec,
						InletOffsetC: rowOffset + rackOffset + heightOffset,
					}
					srv.GPUTempGainC, srv.GPUTempBiasC = gpuHeterogeneity(rng, spec)
					serverID++
					dc.addServer(rack, row, srv)
				}
				row.Racks = append(row.Racks, rack)
				dc.Racks = append(dc.Racks, rack)
			}
			row.ProvPowerW = float64(len(row.Servers)) * spec.ServerTDPW * (1 + powerMargin)
			aisle.Rows[r] = row
			dc.Rows = append(dc.Rows, row)
			dc.UPSes[row.UPS].Rows = append(dc.UPSes[row.UPS].Rows, rowID)
		}
		nServers := float64(len(aisle.Rows[0].Servers) + len(aisle.Rows[1].Servers))
		designCFM := spec.AirflowIdleCFM + (spec.AirflowMaxCFM-spec.AirflowIdleCFM)*airflowDesignLoad
		aisle.ProvAirflowCFM = nServers * designCFM * (1 + airflowMargin)
		dc.Aisles = append(dc.Aisles, aisle)
	}
	return dc, nil
}

// gpuHeterogeneity draws per-GPU temperature response parameters. The paper
// observes up to 10 °C spread across the 8 GPUs of one server at identical
// load (Fig. 8), with even GPU numbers (closer to the inlet) cooler, and
// over 20 °C spread across GPUs of the whole datacenter at comparable inlet
// (Fig. 9) — so there is a server-level component (assembly and heat-sink
// variation) on top of the per-GPU one.
func gpuHeterogeneity(rng *rand.Rand, spec GPUSpec) (gain, bias []float64) {
	gain = make([]float64, spec.GPUsPerServer)
	bias = make([]float64, spec.GPUsPerServer)
	// Server-to-server ±7 °C at TDP: together with process variation and
	// chassis position this yields the >20 °C fleet-wide spread of Fig. 9.
	serverOffset := rng.Float64()*14 - 7
	for g := range gain {
		base := 38.0              // °C rise above inlet at TDP
		pv := rng.Float64()*6 - 3 // process variation ±3 °C
		layoutPenalty := 0.0
		if (g+1)%2 == 1 { // odd GPU numbers (1,3,5,7) sit behind other parts
			layoutPenalty = 4.0
		}
		gain[g] = base + serverOffset + pv + layoutPenalty
		bias[g] = 4 + rng.Float64()*2 // idle offset above inlet, 4–6 °C
	}
	return gain, bias
}

// AddRacks appends extra racks to every row, modelling oversubscription:
// operators add racks to existing rows without raising the provisioned
// airflow or power envelopes (§4.4). ratio 0.4 adds 40% more racks
// (rounded down per row, at least 1 when ratio > 0).
func (dc *Datacenter) AddRacks(ratio float64) {
	if ratio <= 0 {
		return
	}
	rng := rand.New(rand.NewPCG(dc.Config.Seed, 0x05e15))
	serverID := len(dc.Servers)
	rackID := len(dc.Racks)
	for _, row := range dc.Rows {
		spec := row.Servers[0].GPU // rows are homogeneous by construction
		extra := int(float64(dc.Config.RacksPerRow) * ratio)
		if extra == 0 {
			extra = 1
		}
		for k := 0; k < extra; k++ {
			pos := dc.Config.RacksPerRow + k
			rack := &Rack{ID: rackID, Row: row.ID, PosInRow: pos}
			rackID++
			posFrac := float64(pos) / float64(max(dc.Config.RacksPerRow-1, 1))
			if posFrac > 1.3 {
				posFrac = 1.3
			}
			rackOffset := 1.4*posFrac*posFrac + rng.Float64()*0.6 - 0.3
			for h := 0; h < dc.Config.ServersPerRack; h++ {
				srv := &Server{
					ID:           serverID,
					Rack:         rack.ID,
					Row:          row.ID,
					Aisle:        row.Aisle,
					HeightU:      h,
					GPU:          spec,
					InletOffsetC: rackOffset + 0.05*float64(h),
				}
				srv.GPUTempGainC, srv.GPUTempBiasC = gpuHeterogeneity(rng, spec)
				serverID++
				dc.addServer(rack, row, srv)
			}
			row.Racks = append(row.Racks, rack)
			dc.Racks = append(dc.Racks, rack)
		}
		// Note: row.ProvPowerW and aisle ProvAirflowCFM intentionally stay
		// fixed — that is what oversubscription means.
		dc.Aisles[row.Aisle].servers = nil // invalidate the memoized roster
	}
}
