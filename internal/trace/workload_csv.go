package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"github.com/tapas-sim/tapas/internal/llm"
)

// The workload CSV format is the archival unit of record/replay: one
// versioned file that round-trips a full Workload — generation config, SaaS
// endpoints (including their per-endpoint seeds and demand shapes), and the
// VM arrival trace — losslessly, so a recorded workload can be pinned in a
// repository and replayed byte-identically under any policy, climate, or
// failure schedule.
//
// The file is ordinary CSV with a leading record-type column and per-type
// field counts:
//
//	tapas-workload,v2
//	config,<servers>,<saas_fraction>,<duration_ns>,<endpoints>,<seed>,<occupancy>,<demand_scale>
//	endpoint,<id>,<num_vms>,<avg_prompt_tokens>,<avg_output_tokens>,<rate_base>,<rate_amp>,<rate_phase>,<rate_weekend_dip>,<rate_noise>,<rate_seed>,<peak_rps_per_vm>,<customer_count>,<seed>,<rate_time_scale>
//	vm,<id>,<kind>,<customer>,<endpoint>,<arrival_ns>,<lifetime_ns>,<base>,<amp>,<phase>,<weekend_dip>,<noise>,<seed>,<time_scale>
//
// Records must appear in section order (version, config, endpoints, VMs) so
// the reader can validate every row as it arrives: a VM row referencing an
// endpoint checks against the endpoints already declared, without buffering
// the file. Floats are serialized with strconv 'g'/-1, which round-trips
// float64 exactly.
//
// v1 files — everything recorded before the time_warp transform existed —
// lack the trailing time_scale column on endpoint and vm rows; the reader
// still accepts them (time scale 0 = unscaled), the writer always emits v2.
const (
	workloadMagic     = "tapas-workload"
	workloadVersion   = "v2"
	workloadVersionV1 = "v1"

	configCols = 8

	endpointColsV1 = 14
	vmColsV1       = 13
	endpointCols   = 15
	vmCols         = 14
)

// WriteWorkloadCSV serializes a full workload in the versioned CSV layout
// documented above. ReadWorkloadCSV inverts it losslessly.
func WriteWorkloadCSV(w io.Writer, wl *Workload) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{workloadMagic, workloadVersion}); err != nil {
		return fmt.Errorf("trace: writing workload version: %w", err)
	}
	cfg := wl.Config
	if err := cw.Write([]string{
		"config",
		strconv.Itoa(cfg.Servers),
		formatFloat(cfg.SaaSFraction),
		strconv.FormatInt(int64(cfg.Duration), 10),
		strconv.Itoa(cfg.Endpoints),
		strconv.FormatUint(cfg.Seed, 10),
		formatFloat(cfg.Occupancy),
		formatFloat(cfg.DemandScale),
	}); err != nil {
		return fmt.Errorf("trace: writing workload config: %w", err)
	}
	for _, ep := range wl.Endpoints {
		if err := cw.Write([]string{
			"endpoint",
			strconv.Itoa(ep.ID),
			strconv.Itoa(ep.NumVMs),
			formatFloat(ep.Work.AvgPromptTokens),
			formatFloat(ep.Work.AvgOutputTokens),
			formatFloat(ep.Rate.Base),
			formatFloat(ep.Rate.DiurnalAmp),
			formatFloat(ep.Rate.PhaseHours),
			formatFloat(ep.Rate.WeekendDip),
			formatFloat(ep.Rate.NoiseAmp),
			strconv.FormatUint(ep.Rate.Seed, 10),
			formatFloat(ep.PeakRPSPerVM),
			strconv.Itoa(ep.CustomerCount),
			strconv.FormatUint(ep.Seed, 10),
			formatFloat(ep.Rate.TimeScale),
		}); err != nil {
			return fmt.Errorf("trace: writing endpoint %d: %w", ep.ID, err)
		}
	}
	for _, vm := range wl.VMs {
		if err := cw.Write([]string{
			"vm",
			strconv.Itoa(vm.ID),
			strconv.Itoa(int(vm.Kind)),
			strconv.Itoa(vm.Customer),
			strconv.Itoa(vm.Endpoint),
			strconv.FormatInt(int64(vm.Arrival), 10),
			strconv.FormatInt(int64(vm.Lifetime), 10),
			formatFloat(vm.Load.Base),
			formatFloat(vm.Load.DiurnalAmp),
			formatFloat(vm.Load.PhaseHours),
			formatFloat(vm.Load.WeekendDip),
			formatFloat(vm.Load.NoiseAmp),
			strconv.FormatUint(vm.Load.Seed, 10),
			formatFloat(vm.Load.TimeScale),
		}); err != nil {
			return fmt.Errorf("trace: writing VM %d: %w", vm.ID, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing workload CSV: %w", err)
	}
	return nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// ReadWorkloadCSV parses a workload written by WriteWorkloadCSV. The reader
// streams: each record is validated as it arrives (section order, field
// counts, finite floats, then the per-record checks Workload.Validate
// applies), so a malformed row is reported with its 1-based row number —
// the version line is row 1 — without reading the rest of the file.
func ReadWorkloadCSV(r io.Reader) (*Workload, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // per-type counts, checked below
	cr.ReuseRecord = true

	rec, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: workload CSV is empty")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: workload row 1: %w", err)
	}
	if len(rec) != 2 || rec[0] != workloadMagic {
		return nil, fmt.Errorf("trace: workload row 1: not a %s file (got %q)", workloadMagic, rec[0])
	}
	v1 := rec[1] == workloadVersionV1
	if !v1 && rec[1] != workloadVersion {
		return nil, fmt.Errorf("trace: workload row 1: unsupported version %q (supported: %s, %s)", rec[1], workloadVersionV1, workloadVersion)
	}
	wantEndpointCols, wantVMCols := endpointCols, vmCols
	if v1 {
		wantEndpointCols, wantVMCols = endpointColsV1, vmColsV1
	}

	wl := &Workload{}
	var (
		row        = 1
		haveConfig bool
		sawVM      bool
	)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		row++
		if err != nil {
			return nil, fmt.Errorf("trace: workload row %d: %w", row, err)
		}
		p := rowParser{rec: rec, row: row}
		switch rec[0] {
		case "config":
			if haveConfig {
				return nil, fmt.Errorf("trace: workload row %d: duplicate config record", row)
			}
			if len(rec) != configCols {
				return nil, fmt.Errorf("trace: workload row %d: config record has %d fields, want %d", row, len(rec), configCols)
			}
			cfg := WorkloadConfig{
				Servers:      p.intField(1, "servers"),
				SaaSFraction: p.floatField(2, "saas_fraction"),
				Duration:     time.Duration(p.int64Field(3, "duration_ns")),
				Endpoints:    p.intField(4, "endpoints"),
				Seed:         p.uintField(5, "seed"),
				Occupancy:    p.floatField(6, "occupancy"),
				DemandScale:  p.floatField(7, "demand_scale"),
			}
			if p.err != nil {
				return nil, p.err
			}
			if err := validateConfig(&cfg); err != nil {
				return nil, fmt.Errorf("trace: workload row %d: %w", row, err)
			}
			wl.Config = cfg
			haveConfig = true

		case "endpoint":
			if !haveConfig {
				return nil, fmt.Errorf("trace: workload row %d: endpoint record before config", row)
			}
			if sawVM {
				return nil, fmt.Errorf("trace: workload row %d: endpoint record after VM records (endpoints must precede VMs)", row)
			}
			if len(rec) != wantEndpointCols {
				return nil, fmt.Errorf("trace: workload row %d: endpoint record has %d fields, want %d", row, len(rec), wantEndpointCols)
			}
			ep := EndpointSpec{
				ID:     p.intField(1, "id"),
				NumVMs: p.intField(2, "num_vms"),
				Work: llm.Workload{
					AvgPromptTokens: p.floatField(3, "avg_prompt_tokens"),
					AvgOutputTokens: p.floatField(4, "avg_output_tokens"),
				},
				Rate: LoadPattern{
					Base:       p.floatField(5, "rate_base"),
					DiurnalAmp: p.floatField(6, "rate_amp"),
					PhaseHours: p.floatField(7, "rate_phase"),
					WeekendDip: p.floatField(8, "rate_weekend_dip"),
					NoiseAmp:   p.floatField(9, "rate_noise"),
					Seed:       p.uintField(10, "rate_seed"),
				},
				PeakRPSPerVM:  p.floatField(11, "peak_rps_per_vm"),
				CustomerCount: p.intField(12, "customer_count"),
				Seed:          p.uintField(13, "seed"),
			}
			if !v1 {
				ep.Rate.TimeScale = p.floatField(14, "rate_time_scale")
			}
			if p.err != nil {
				return nil, p.err
			}
			if err := validateEndpoint(&ep, len(wl.Endpoints)); err != nil {
				return nil, fmt.Errorf("trace: workload row %d: %w", row, err)
			}
			wl.Endpoints = append(wl.Endpoints, ep)

		case "vm":
			if !haveConfig {
				return nil, fmt.Errorf("trace: workload row %d: vm record before config", row)
			}
			if len(rec) != wantVMCols {
				return nil, fmt.Errorf("trace: workload row %d: vm record has %d fields, want %d", row, len(rec), wantVMCols)
			}
			sawVM = true
			vm := VMSpec{
				ID:       p.intField(1, "id"),
				Kind:     VMKind(p.intField(2, "kind")),
				Customer: p.intField(3, "customer"),
				Endpoint: p.intField(4, "endpoint"),
				Arrival:  time.Duration(p.int64Field(5, "arrival_ns")),
				Lifetime: time.Duration(p.int64Field(6, "lifetime_ns")),
				Load: LoadPattern{
					Base:       p.floatField(7, "base"),
					DiurnalAmp: p.floatField(8, "amp"),
					PhaseHours: p.floatField(9, "phase"),
					WeekendDip: p.floatField(10, "weekend_dip"),
					NoiseAmp:   p.floatField(11, "noise"),
					Seed:       p.uintField(12, "seed"),
				},
			}
			if !v1 {
				vm.Load.TimeScale = p.floatField(13, "time_scale")
			}
			if p.err != nil {
				return nil, p.err
			}
			if err := wl.validateVM(len(wl.VMs), &vm); err != nil {
				return nil, fmt.Errorf("trace: workload row %d: %w", row, err)
			}
			wl.VMs = append(wl.VMs, vm)

		default:
			return nil, fmt.Errorf("trace: workload row %d: unknown record type %q (known: config, endpoint, vm)", row, rec[0])
		}
	}
	if !haveConfig {
		return nil, fmt.Errorf("trace: workload CSV has no config record")
	}
	if len(wl.VMs) == 0 {
		return nil, fmt.Errorf("trace: workload CSV has no VM records")
	}
	return wl, nil
}

// rowParser accumulates the first field-parse error of a record, so record
// construction reads as a flat literal and errors still carry row, field
// name, and cause.
type rowParser struct {
	rec []string
	row int
	err error
}

func (p *rowParser) fail(idx int, name string, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("trace: workload row %d: field %d (%s): %w", p.row, idx+1, name, err)
	}
}

func (p *rowParser) intField(idx int, name string) int {
	v, err := strconv.Atoi(p.rec[idx])
	if err != nil {
		p.fail(idx, name, err)
	}
	return v
}

func (p *rowParser) int64Field(idx int, name string) int64 {
	v, err := strconv.ParseInt(p.rec[idx], 10, 64)
	if err != nil {
		p.fail(idx, name, err)
	}
	return v
}

func (p *rowParser) uintField(idx int, name string) uint64 {
	v, err := strconv.ParseUint(p.rec[idx], 10, 64)
	if err != nil {
		p.fail(idx, name, err)
	}
	return v
}

func (p *rowParser) floatField(idx int, name string) float64 {
	v, err := strconv.ParseFloat(p.rec[idx], 64)
	if err != nil {
		p.fail(idx, name, err)
	}
	// NaN/Inf would parse fine here and then poison every downstream
	// power/temperature metric; fail at the row instead.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		p.fail(idx, name, fmt.Errorf("non-finite value %q", p.rec[idx]))
	}
	return v
}

// SaveWorkloadCSV writes a workload trace to a file.
func SaveWorkloadCSV(path string, wl *Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := WriteWorkloadCSV(f, wl); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// LoadWorkloadCSV reads a workload trace from a file.
func LoadWorkloadCSV(path string) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	wl, err := ReadWorkloadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return wl, nil
}
