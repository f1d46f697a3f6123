package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
	"time"

	"github.com/tapas-sim/tapas/internal/llm"
)

// Azure-LLM-inference-style trace ingestion. The paper evaluates TAPAS
// against production Azure traces; the public Azure LLM inference datasets
// record one request per row with a timestamp, the endpoint (model
// deployment) it hit, and its prompt/output token counts. ReadAzureLLMCSV
// reconstructs a replayable Workload from that request log: per-endpoint
// demand is binned over the trace window, the binned rates are fitted to the
// simulator's diurnal LoadPattern, and a SaaS fleet sized to the target
// cluster is allocated across endpoints in proportion to their peak token
// throughput.
//
// Expected CSV layout (header row required, names exact):
//
//	timestamp,endpoint,prompt_tokens,output_tokens
//
// timestamp is either a number of seconds since trace start ("12.75") or an
// absolute time (RFC 3339, or the Azure dataset's "2006-01-02 15:04:05.999"
// form; the first row anchors the epoch). The first data row fixes which of
// the two forms the file uses — mixing them is rejected. Rows must be sorted
// by timestamp (the published datasets are), token counts must be
// non-negative, and endpoint names non-empty.

// AzureImportConfig parameterizes the demand reconstruction.
type AzureImportConfig struct {
	// Servers is the cluster the reconstructed workload targets (required;
	// becomes Workload.Config.Servers, which replay validates against the
	// scenario layout).
	Servers int
	// Occupancy is the fraction of servers hosting a SaaS VM (default 0.92,
	// like the synthetic generator). The resulting VM count is split across
	// endpoints in proportion to peak token throughput, one VM minimum each.
	Occupancy float64
	// Bin is the demand-reconstruction bin width (default 10m; bounds
	// [1m, 24h]). Narrower bins resolve sharper bursts but need denser logs.
	Bin time.Duration
	// Seed feeds the per-endpoint customer-affinity generators of the
	// reconstructed endpoints.
	Seed uint64
}

// Import limits: a malformed (or adversarial) file cannot make the importer
// allocate unbounded bin tables or request logs.
const (
	azureMaxWindow    = 35 * 24 * time.Hour
	azureMaxEndpoints = 256
	azureMaxRequests  = 1 << 22
)

// azureCustomerCount is the per-endpoint customer population of reconstructed
// endpoints. The public datasets carry no tenant column, so imported requests
// draw Zipf-distributed customers from this population — the same affinity
// skew the synthetic generator produces.
const azureCustomerCount = 2000

// azureCustomerSalt decorrelates the imported-request customer stream from
// the per-endpoint generators seeded off the same cfg.Seed.
const azureCustomerSalt = 0xa27e

// Azure dataset timestamps: "2023-11-16 18:01:51.1627340".
const azureTimeLayout = "2006-01-02 15:04:05.999999999"

// azureEndpoint accumulates one endpoint's request log during the streaming
// parse. Endpoint IDs are assigned densely in order of first appearance;
// names exist only in the source file (the simulator addresses endpoints by
// ID).
type azureEndpoint struct {
	requests  int
	promptTok int64
	outputTok int64
	binCount  []int // requests per bin, grown as the window extends
}

// ReadAzureLLMCSV ingests an Azure-LLM-inference-style request log and
// reconstructs a replayable Workload via binned demand reconstruction. The
// reader streams and validates every row as it arrives; errors carry the
// 1-based CSV row (the header is row 1) and the trace: prefix.
func ReadAzureLLMCSV(r io.Reader, cfg AzureImportConfig) (*Workload, error) {
	w, _, err := readAzureLLMCSV(r, cfg, 0)
	return w, err
}

// ReadAzureLLMCSVRequests is ReadAzureLLMCSV plus the request log itself:
// every source row becomes one llm.Request (dense sequential IDs, the dense
// first-appearance endpoint ID, arrival relative to trace start, and a
// Zipf-sampled customer — the datasets carry no tenant column). The log pairs
// with the reconstructed Workload for request-level replay
// (sim.Scenario.Requests): the workload sizes the fleet, the log drives the
// per-request queues.
func ReadAzureLLMCSVRequests(r io.Reader, cfg AzureImportConfig) (*Workload, []llm.Request, error) {
	return readAzureLLMCSV(r, cfg, azureMaxRequests)
}

// readAzureLLMCSV is the shared import; it collects the request log, up to
// maxRequests requests, when maxRequests > 0.
func readAzureLLMCSV(r io.Reader, cfg AzureImportConfig, maxRequests int) (*Workload, []llm.Request, error) {
	if cfg.Servers <= 0 {
		return nil, nil, fmt.Errorf("trace: azure import: non-positive server count %d", cfg.Servers)
	}
	if cfg.Occupancy == 0 {
		cfg.Occupancy = 0.92
	}
	if cfg.Occupancy < 0 || cfg.Occupancy > 1 {
		return nil, nil, fmt.Errorf("trace: azure import: occupancy %v out of (0,1]", cfg.Occupancy)
	}
	if cfg.Bin == 0 {
		cfg.Bin = 10 * time.Minute
	}
	if cfg.Bin < time.Minute || cfg.Bin > 24*time.Hour {
		return nil, nil, fmt.Errorf("trace: azure import: bin %v out of [1m, 24h]", cfg.Bin)
	}

	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	const wantCols = 4
	header, err := cr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("trace: azure CSV is empty")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("trace: azure CSV row 1: %w", err)
	}
	want := [wantCols]string{"timestamp", "endpoint", "prompt_tokens", "output_tokens"}
	if len(header) != wantCols {
		return nil, nil, fmt.Errorf("trace: azure CSV row 1: header has %d columns, want %d", len(header), wantCols)
	}
	for i, name := range want {
		if header[i] != name {
			return nil, nil, fmt.Errorf("trace: azure CSV row 1: column %d is %q, want %q", i+1, header[i], name)
		}
	}

	var (
		endpoints []*azureEndpoint
		byName    = map[string]int{}
		row       = 1
		// absolute / relative timestamp mode, fixed by the first data row
		modeSet  bool
		absolute bool
		epoch    time.Time
		lastRel  time.Duration = -1
		// request-log passthrough (maxRequests > 0 only)
		reqs    []llm.Request
		custRNG = rand.New(rand.NewPCG(cfg.Seed, azureCustomerSalt))
	)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		row++
		if err != nil {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: %w", row, err)
		}

		rel, isAbs, ts, err := parseAzureTimestamp(rec[0], epoch)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: timestamp: %w", row, err)
		}
		if !modeSet {
			modeSet, absolute = true, isAbs
			if isAbs {
				epoch = ts
				rel = 0
			}
		} else if isAbs != absolute {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: timestamp %q mixes absolute and relative-seconds forms within one file", row, rec[0])
		}
		if rel < 0 {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: negative timestamp %q", row, rec[0])
		}
		if rel < lastRel {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: timestamp %q before the previous row's (rows must be sorted by timestamp)", row, rec[0])
		}
		if rel > azureMaxWindow {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: timestamp %q is %v past trace start, beyond the %v import window", row, rec[0], rel, azureMaxWindow)
		}
		lastRel = rel

		name := rec[1]
		if name == "" {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: empty endpoint name", row)
		}
		prompt, err := strconv.Atoi(rec[2])
		if err != nil {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: prompt_tokens: %w", row, err)
		}
		output, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: output_tokens: %w", row, err)
		}
		if prompt < 0 || output < 0 {
			return nil, nil, fmt.Errorf("trace: azure CSV row %d: negative token count (%d, %d)", row, prompt, output)
		}

		idx, ok := byName[name]
		if !ok {
			if len(endpoints) >= azureMaxEndpoints {
				return nil, nil, fmt.Errorf("trace: azure CSV row %d: more than %d distinct endpoints", row, azureMaxEndpoints)
			}
			idx = len(endpoints)
			byName[name] = idx
			endpoints = append(endpoints, &azureEndpoint{})
		}
		ep := endpoints[idx]
		ep.requests++
		ep.promptTok += int64(prompt)
		ep.outputTok += int64(output)
		bin := int(rel / cfg.Bin)
		for len(ep.binCount) <= bin {
			ep.binCount = append(ep.binCount, 0)
		}
		ep.binCount[bin]++

		if maxRequests > 0 {
			if len(reqs) >= maxRequests {
				return nil, nil, fmt.Errorf("trace: azure CSV row %d: more than %d requests", row, maxRequests)
			}
			reqs = append(reqs, llm.Request{
				ID:           int64(len(reqs)),
				Customer:     zipfSample(custRNG, azureCustomerCount),
				Endpoint:     idx,
				PromptTokens: prompt,
				OutputTokens: output,
				Arrival:      rel,
			})
		}
	}
	if len(endpoints) == 0 {
		return nil, nil, fmt.Errorf("trace: azure CSV has no request rows")
	}
	w, err := reconstructAzureWorkload(endpoints, lastRel, cfg)
	if err != nil {
		return nil, nil, err
	}
	return w, reqs, nil
}

// parseAzureTimestamp parses one timestamp field: a float number of seconds
// since trace start, or an absolute RFC 3339 / Azure-dataset time (relative
// to epoch once it is anchored).
func parseAzureTimestamp(s string, epoch time.Time) (rel time.Duration, isAbs bool, ts time.Time, err error) {
	if f, ferr := strconv.ParseFloat(s, 64); ferr == nil {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, false, time.Time{}, fmt.Errorf("non-finite seconds value %q", s)
		}
		if f < 0 {
			// Any negative is negative; avoid converting extreme values.
			return -1, false, time.Time{}, nil
		}
		// Bound before converting: a huge float would overflow Duration.
		if f > azureMaxWindow.Seconds()+1 {
			return 0, false, time.Time{}, fmt.Errorf("seconds value %q outside the import window", s)
		}
		return time.Duration(f * float64(time.Second)), false, time.Time{}, nil
	}
	for _, layout := range []string{time.RFC3339Nano, azureTimeLayout} {
		if t, terr := time.Parse(layout, s); terr == nil {
			if epoch.IsZero() {
				return 0, true, t, nil
			}
			d := t.Sub(epoch)
			return d, true, t, nil
		}
	}
	return 0, false, time.Time{}, fmt.Errorf("invalid timestamp %q (want seconds since start, RFC 3339, or %q)", s, azureTimeLayout)
}

// reconstructAzureWorkload fits the binned per-endpoint request log to the
// simulator's workload model: diurnal LoadPatterns matched to the observed
// rate shape, peak request rates preserved exactly, and a SaaS fleet split
// across endpoints by peak token throughput.
func reconstructAzureWorkload(eps []*azureEndpoint, lastRel time.Duration, cfg AzureImportConfig) (*Workload, error) {
	totalBins := int(lastRel/cfg.Bin) + 1
	duration := time.Duration(totalBins) * cfg.Bin

	targetVMs := int(float64(cfg.Servers) * cfg.Occupancy)
	if targetVMs < len(eps) {
		return nil, fmt.Errorf("trace: azure import: %d servers at occupancy %.2f fit %d SaaS VMs, fewer than the %d endpoints in the trace",
			cfg.Servers, cfg.Occupancy, targetVMs, len(eps))
	}

	binSec := cfg.Bin.Seconds()
	type fit struct {
		peakRPS   float64 // highest binned request rate (requests/s)
		base      float64 // min/peak binned rate, the pattern floor
		phase     float64 // PhaseHours aligning the pattern peak to the data
		avgPrompt float64
		avgOutput float64
	}
	fits := make([]fit, len(eps))
	weights := make([]float64, len(eps)) // peak token throughput, the VM-allocation weight
	for i, ep := range eps {
		peak, minRate, peakBin := 0.0, math.Inf(1), 0
		for b := 0; b < totalBins; b++ {
			r := 0.0
			if b < len(ep.binCount) {
				r = float64(ep.binCount[b]) / binSec
			}
			if r > peak {
				peak, peakBin = r, b
			}
			if r < minRate {
				minRate = r
			}
		}
		f := fit{
			peakRPS:   peak,
			base:      minRate / peak, // peak > 0: every endpoint has ≥1 request
			avgPrompt: math.Max(1, float64(ep.promptTok)/float64(ep.requests)),
			avgOutput: math.Max(1, float64(ep.outputTok)/float64(ep.requests)),
		}
		// LoadPattern peaks at hour 15+PhaseHours; align it with the
		// hour-of-day of the hottest bin.
		peakHour := math.Mod((time.Duration(peakBin)*cfg.Bin + cfg.Bin/2).Hours(), 24)
		f.phase = peakHour - 15
		weights[i] = f.peakRPS * (f.avgPrompt + f.avgOutput)
		fits[i] = f
	}

	sizes := splitVMs(targetVMs, weights)

	totalVMs := 0
	w := &Workload{}
	for i := range eps {
		f := fits[i]
		w.Endpoints = append(w.Endpoints, EndpointSpec{
			ID:     i,
			NumVMs: sizes[i],
			Work:   llm.Workload{AvgPromptTokens: f.avgPrompt, AvgOutputTokens: f.avgOutput},
			Rate: LoadPattern{
				Base:       f.base,
				DiurnalAmp: 1 - f.base,
				PhaseHours: f.phase,
			},
			PeakRPSPerVM:  f.peakRPS / float64(sizes[i]),
			CustomerCount: 2000,
			Seed:          cfg.Seed ^ (uint64(i+1) << 20),
		})
		for j := 0; j < sizes[i]; j++ {
			w.VMs = append(w.VMs, VMSpec{
				ID:       totalVMs,
				Kind:     SaaS,
				Customer: -1,
				Endpoint: i,
				Arrival:  0,
				Lifetime: duration,
			})
			totalVMs++
		}
	}
	w.Config = WorkloadConfig{
		Servers:      cfg.Servers,
		SaaSFraction: 1,
		Duration:     duration,
		Endpoints:    len(eps),
		Seed:         cfg.Seed,
		Occupancy:    float64(totalVMs) / float64(cfg.Servers),
		DemandScale:  1,
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("trace: azure import produced an invalid workload: %w", err)
	}
	return w, nil
}

// LoadAzureLLMCSV reads an Azure-style request log from a file.
func LoadAzureLLMCSV(path string, cfg AzureImportConfig) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w, err := ReadAzureLLMCSV(f, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return w, nil
}

// LoadAzureLLMCSVRequests reads an Azure-style request log from a file and
// returns both the reconstructed Workload and the per-request replay log
// (see ReadAzureLLMCSVRequests).
func LoadAzureLLMCSVRequests(path string, cfg AzureImportConfig) (*Workload, []llm.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w, reqs, err := ReadAzureLLMCSVRequests(f, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return w, reqs, nil
}
