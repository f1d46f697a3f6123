package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"github.com/tapas-sim/tapas/internal/llm"
)

// WriteVMsCSV writes a workload's VM arrival trace as a flat CSV table, one
// row per VM, for spreadsheet tools (tapas-trace -export -vms). The table is
// write-only: it drops each load pattern's time_scale, so it cannot replay
// a time-warped workload; the versioned workload CSV (WriteWorkloadCSV) is
// the replayable record.
//
// Columns: id,kind,customer,endpoint,arrival_ns,lifetime_ns,base,amp,phase,
// weekend_dip,noise,seed.
func WriteVMsCSV(w io.Writer, vms []VMSpec) error {
	cw := csv.NewWriter(w)
	header := []string{"id", "kind", "customer", "endpoint", "arrival_ns", "lifetime_ns",
		"base", "amp", "phase", "weekend_dip", "noise", "seed"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for _, vm := range vms {
		rec := []string{
			strconv.Itoa(vm.ID),
			strconv.Itoa(int(vm.Kind)),
			strconv.Itoa(vm.Customer),
			strconv.Itoa(vm.Endpoint),
			strconv.FormatInt(int64(vm.Arrival), 10),
			strconv.FormatInt(int64(vm.Lifetime), 10),
			strconv.FormatFloat(vm.Load.Base, 'g', -1, 64),
			strconv.FormatFloat(vm.Load.DiurnalAmp, 'g', -1, 64),
			strconv.FormatFloat(vm.Load.PhaseHours, 'g', -1, 64),
			strconv.FormatFloat(vm.Load.WeekendDip, 'g', -1, 64),
			strconv.FormatFloat(vm.Load.NoiseAmp, 'g', -1, 64),
			strconv.FormatUint(vm.Load.Seed, 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing VM %d: %w", vm.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// validateRequest checks one request against the invariants fine-grained
// replay relies on: non-negative token counts and arrival, and arrivals
// non-decreasing (replay engines consume the stream through a monotone
// cursor, like VM arrivals). Shared by the writer and the reader so the two
// cannot drift: anything the writer archives, the reader accepts.
func validateRequest(r llm.Request, prev time.Duration) error {
	if r.PromptTokens < 0 || r.OutputTokens < 0 {
		return fmt.Errorf("negative token count (%d, %d)", r.PromptTokens, r.OutputTokens)
	}
	if r.Arrival < 0 {
		return fmt.Errorf("negative arrival %v", r.Arrival)
	}
	if r.Arrival < prev {
		return fmt.Errorf("arrival %v before the previous request's %v (requests must be sorted by arrival)", r.Arrival, prev)
	}
	return nil
}

// WriteRequestsCSV serializes a request stream (id,customer,endpoint,prompt,
// output,arrival_ns) for request-level replay. Requests are validated as
// they are written — negative counts or out-of-order arrivals would archive
// a stream the reader (rightly) refuses to load back.
func WriteRequestsCSV(w io.Writer, reqs []llm.Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "customer", "endpoint", "prompt", "output", "arrival_ns"}); err != nil {
		return fmt.Errorf("trace: writing requests header: %w", err)
	}
	var prev time.Duration
	seen := make(map[int64]bool, len(reqs))
	for i, r := range reqs {
		if err := validateRequest(r, prev); err != nil {
			return fmt.Errorf("trace: writing request %d (id %d): %w", i, r.ID, err)
		}
		if seen[r.ID] {
			return fmt.Errorf("trace: writing request %d: duplicate request id %d", i, r.ID)
		}
		seen[r.ID] = true
		prev = r.Arrival
		rec := []string{
			strconv.FormatInt(r.ID, 10),
			strconv.Itoa(r.Customer),
			strconv.Itoa(r.Endpoint),
			strconv.Itoa(r.PromptTokens),
			strconv.Itoa(r.OutputTokens),
			strconv.FormatInt(int64(r.Arrival), 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing request %d: %w", r.ID, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing requests CSV: %w", err)
	}
	return nil
}

// ReadRequestsCSV parses a stream written by WriteRequestsCSV. It streams —
// every row is validated as it arrives (header names, field parses,
// duplicate IDs, non-negative counts, sorted arrivals) rather than after
// materializing the slice — and errors carry the 1-based CSV row (the header
// is row 1). Both the current 6-column layout and the
// legacy 5-column form without the endpoint column (every request targets
// endpoint 0) are accepted; the writer always emits 6 columns.
func ReadRequestsCSV(r io.Reader) ([]llm.Request, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty requests CSV")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: requests CSV row 1: %w", err)
	}
	want := []string{"id", "customer", "endpoint", "prompt", "output", "arrival_ns"}
	hasEndpoint := true
	if len(header) == len(want)-1 {
		// Legacy 5-column stream: no endpoint column.
		want = []string{"id", "customer", "prompt", "output", "arrival_ns"}
		hasEndpoint = false
	} else if len(header) != len(want) {
		return nil, fmt.Errorf("trace: requests CSV row 1: header has %d columns, want %d (or the legacy %d without endpoint)", len(header), len(want), len(want)-1)
	}
	for i, name := range want {
		if header[i] != name {
			return nil, fmt.Errorf("trace: requests CSV row 1: column %d is %q, want %q", i+1, header[i], name)
		}
	}
	var out []llm.Request
	seen := map[int64]bool{}
	var prev time.Duration
	row := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		row++
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: %w", row, err)
		}
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: id: %w", row, err)
		}
		if seen[id] {
			return nil, fmt.Errorf("trace: requests CSV row %d: duplicate request id %d", row, id)
		}
		customer, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: customer: %w", row, err)
		}
		endpoint, col := 0, 2
		if hasEndpoint {
			endpoint, err = strconv.Atoi(rec[2])
			if err != nil {
				return nil, fmt.Errorf("trace: requests CSV row %d: endpoint: %w", row, err)
			}
			if endpoint < 0 {
				return nil, fmt.Errorf("trace: requests CSV row %d: negative endpoint %d", row, endpoint)
			}
			col = 3
		}
		prompt, err := strconv.Atoi(rec[col])
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: prompt: %w", row, err)
		}
		output, err := strconv.Atoi(rec[col+1])
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: output: %w", row, err)
		}
		arrival, err := strconv.ParseInt(rec[col+2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: arrival: %w", row, err)
		}
		req := llm.Request{
			ID: id, Customer: customer, Endpoint: endpoint,
			PromptTokens: prompt, OutputTokens: output,
			Arrival: time.Duration(arrival),
		}
		if err := validateRequest(req, prev); err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: %w", row, err)
		}
		seen[id] = true
		prev = req.Arrival
		out = append(out, req)
	}
	return out, nil
}

// SaveRequestsCSV writes a request stream to a file via WriteRequestsCSV.
func SaveRequestsCSV(path string, reqs []llm.Request) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := WriteRequestsCSV(f, reqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadRequestsCSV reads a request stream from a file via ReadRequestsCSV.
func LoadRequestsCSV(path string) ([]llm.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	reqs, err := ReadRequestsCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reqs, nil
}
