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

// validateRequest checks one request of a log against the invariants
// request-level replay relies on: non-negative token counts and arrival,
// arrivals non-decreasing after prev, the previous request's (the engine
// admits through a monotone cursor, like VM arrivals), and an endpoint in
// [0, endpoints) (queues are indexed positionally).
func validateRequest(r llm.Request, prev time.Duration, endpoints int) error {
	if r.PromptTokens < 0 || r.OutputTokens < 0 {
		return fmt.Errorf("negative token count (%d, %d)", r.PromptTokens, r.OutputTokens)
	}
	if r.Arrival < 0 {
		return fmt.Errorf("negative arrival %v", r.Arrival)
	}
	if r.Arrival < prev {
		return fmt.Errorf("arrival %v before the previous request's %v (requests must be sorted by arrival)", r.Arrival, prev)
	}
	if r.Endpoint < 0 {
		return fmt.Errorf("negative endpoint %d", r.Endpoint)
	}
	if r.Endpoint >= endpoints {
		return fmt.Errorf("endpoint %d, but the workload has %d endpoints", r.Endpoint, endpoints)
	}
	return nil
}

// ValidateRequests checks a request log against the workload it is replayed
// with, which has the given number of endpoints, through the same
// per-request check the CSV reader and writer apply to each row.
func ValidateRequests(reqs []llm.Request, endpoints int) error {
	var prev time.Duration
	for i, r := range reqs {
		if err := validateRequest(r, prev, endpoints); err != nil {
			return fmt.Errorf("trace: request %d: %w", i, err)
		}
		prev = r.Arrival
	}
	return nil
}

// validateRequestRow checks r as data row i (0-based) of a requests CSV,
// shared by the writer and the reader so that anything the writer archives
// the reader accepts. The file's ID rule comes first: id = i, so IDs are
// dense, ascending and unique (the engine never reads IDs, so
// ValidateRequests leaves them out). The per-request check follows, with
// every endpoint admitted, because a file does not know its workload.
func validateRequestRow(r llm.Request, i int, prev time.Duration) error {
	if r.ID != int64(i) {
		return fmt.Errorf("request id %d, want %d (request ids must be dense 0..n-1 in row order)", r.ID, i)
	}
	return validateRequest(r, prev, math.MaxInt)
}

// WriteRequestsCSV serializes a request stream (id,customer,endpoint,prompt,
// output,arrival_ns) for request-level replay. Requests are validated as
// they are written, so the writer never archives a stream the reader
// (rightly) refuses to load back.
func WriteRequestsCSV(w io.Writer, reqs []llm.Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "customer", "endpoint", "prompt", "output", "arrival_ns"}); err != nil {
		return fmt.Errorf("trace: writing requests header: %w", err)
	}
	var prev time.Duration
	for i, r := range reqs {
		if err := validateRequestRow(r, i, prev); err != nil {
			return fmt.Errorf("trace: writing request %d: %w", i, err)
		}
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
// every row is validated as it arrives (header names, field parses, then
// validateRequestRow) rather than after materializing the slice — and errors
// carry the 1-based CSV row (the header is row 1).
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
	if len(header) != len(want) {
		return nil, fmt.Errorf("trace: requests CSV row 1: header has %d columns, want %d", len(header), len(want))
	}
	for i, name := range want {
		if header[i] != name {
			return nil, fmt.Errorf("trace: requests CSV row 1: column %d is %q, want %q", i+1, header[i], name)
		}
	}
	var out []llm.Request
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
		customer, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: customer: %w", row, err)
		}
		endpoint, err := strconv.Atoi(rec[2])
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: endpoint: %w", row, err)
		}
		prompt, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: prompt: %w", row, err)
		}
		output, err := strconv.Atoi(rec[4])
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: output: %w", row, err)
		}
		arrival, err := strconv.ParseInt(rec[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: arrival: %w", row, err)
		}
		req := llm.Request{
			ID: id, Customer: customer, Endpoint: endpoint,
			PromptTokens: prompt, OutputTokens: output,
			Arrival: time.Duration(arrival),
		}
		if err := validateRequestRow(req, len(out), prev); err != nil {
			return nil, fmt.Errorf("trace: requests CSV row %d: %w", row, err)
		}
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
