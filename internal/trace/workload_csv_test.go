package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// genWorkload builds a small deterministic workload for round-trip tests.
func genWorkload(t *testing.T, cfg WorkloadConfig) *Workload {
	t.Helper()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadCSVRoundTrip sweeps a grid of generation configs and requires
// the CSV round trip to reproduce the exact Workload struct — the property
// behind byte-identical replay reports.
func TestWorkloadCSVRoundTrip(t *testing.T) {
	for _, saas := range []float64{0, 0.5, 1} {
		for _, eps := range []int{1, 4} {
			for _, seed := range []uint64{1, 42} {
				name := fmt.Sprintf("saas=%v/eps=%d/seed=%d", saas, eps, seed)
				t.Run(name, func(t *testing.T) {
					w := genWorkload(t, WorkloadConfig{
						Servers: 80, SaaSFraction: saas, Duration: 6 * time.Hour,
						Endpoints: eps, Seed: seed,
					})
					var buf bytes.Buffer
					if err := WriteWorkloadCSV(&buf, w); err != nil {
						t.Fatal(err)
					}
					got, err := ReadWorkloadCSV(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, w) {
						t.Errorf("workload differs after round trip:\ngot config  %+v\nwant config %+v\ngot %d VMs / %d endpoints, want %d / %d",
							got.Config, w.Config, len(got.VMs), len(got.Endpoints), len(w.VMs), len(w.Endpoints))
					}
				})
			}
		}
	}
}

// TestWorkloadCSVInputVariants proves the reader is robust to the CSV
// variants real files arrive in: CRLF line endings, quoted fields, and a
// missing trailing newline all parse to the identical workload.
func TestWorkloadCSVInputVariants(t *testing.T) {
	w := genWorkload(t, WorkloadConfig{
		Servers: 60, SaaSFraction: 0.5, Duration: 3 * time.Hour, Endpoints: 2, Seed: 7,
	})
	var buf bytes.Buffer
	if err := WriteWorkloadCSV(&buf, w); err != nil {
		t.Fatal(err)
	}
	canonical := buf.String()

	quoteAll := func(s string) string {
		var sb strings.Builder
		for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
			fields := strings.Split(line, ",")
			for i, f := range fields {
				fields[i] = `"` + f + `"`
			}
			sb.WriteString(strings.Join(fields, ","))
			sb.WriteString("\n")
		}
		return sb.String()
	}
	variants := map[string]string{
		"crlf":                strings.ReplaceAll(canonical, "\n", "\r\n"),
		"no trailing newline": strings.TrimRight(canonical, "\n"),
		"quoted fields":       quoteAll(canonical),
		"quoted crlf no trailing newline": strings.TrimRight(
			strings.ReplaceAll(quoteAll(canonical), "\n", "\r\n"), "\r\n"),
	}
	for name, in := range variants {
		t.Run(name, func(t *testing.T) {
			got, err := ReadWorkloadCSV(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Error("workload differs from canonical parse")
			}
		})
	}
}

func validWorkloadCSV(t *testing.T) string {
	t.Helper()
	w := genWorkload(t, WorkloadConfig{
		Servers: 40, SaaSFraction: 0.5, Duration: time.Hour, Endpoints: 2, Seed: 3,
	})
	var buf bytes.Buffer
	if err := WriteWorkloadCSV(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReadWorkloadCSVErrors drives every incremental-validation path and
// requires each error to name its 1-based row.
func TestReadWorkloadCSVErrors(t *testing.T) {
	valid := validWorkloadCSV(t)
	lines := strings.Split(strings.TrimRight(valid, "\n"), "\n")
	withLine := func(idx int, repl string) string {
		out := append([]string(nil), lines...)
		out[idx] = repl
		return strings.Join(out, "\n") + "\n"
	}
	firstVM := 0
	for i, l := range lines {
		if strings.HasPrefix(l, "vm,") {
			firstVM = i
			break
		}
	}
	cases := map[string]struct {
		in      string
		wantSub string
	}{
		"empty":              {"", "empty"},
		"wrong magic":        {"nope,v1\n", "not a tapas-workload file"},
		"bad version":        {"tapas-workload,v99\n", "unsupported version"},
		"no config":          {"tapas-workload,v1\n", "no config record"},
		"no vms":             {lines[0] + "\n" + lines[1] + "\n", "no VM records"},
		"unknown record":     {withLine(2, "bogus,1,2"), "unknown record type"},
		"duplicate config":   {withLine(2, lines[1]), "duplicate config record"},
		"config field count": {withLine(1, "config,1,2,3"), "config record has 4 fields"},
		"config bad servers": {withLine(1, "config,x,0.5,0,2,3,0.92,0.8"), "field 2 (servers)"},
		"config neg servers": {withLine(1, "config,-4,0.5,0,2,3,0.92,0.8"), "non-positive server count"},
		"config bad mix":     {withLine(1, "config,40,1.5,0,2,3,0.92,0.8"), "saas_fraction 1.5 out of [0,1]"},
		"endpoint after vm": {strings.Join(append(append([]string(nil), lines[:firstVM+1]...), lines[2]), "\n") + "\n",
			"endpoint record after VM records"},
		"endpoint field count": {withLine(2, "endpoint,0,5"), "endpoint record has 3 fields"},
		"endpoint bad id":      {withLine(2, "endpoint,x"+strings.TrimPrefix(lines[2], "endpoint,0")), "field 2 (id)"},
		"duplicate endpoint":   {withLine(3, lines[2]), "endpoint ids must be dense"},
		"endpoint shifted id":  {withLine(2, "endpoint,7"+strings.TrimPrefix(lines[2], "endpoint,0")), "endpoint id 7, want 0"},
		"endpoint zero prompt": {withLine(2, "endpoint,0,5,0,256,0.25,0.65,1,0.25,0.05,42,2.5,100,7,0"), "row 3: non-positive avg_prompt_tokens 0"},
		"endpoint neg prompt":  {withLine(2, "endpoint,0,5,-1024,256,0.25,0.65,1,0.25,0.05,42,2.5,100,7,0"), "row 3: non-positive avg_prompt_tokens -1024"},
		"endpoint neg output":  {withLine(2, "endpoint,0,5,1024,-256,0.25,0.65,1,0.25,0.05,42,2.5,100,7,0"), "row 3: negative avg_output_tokens -256"},
		"endpoint neg rps":     {withLine(2, "endpoint,0,5,1024,256,0.25,0.65,1,0.25,0.05,42,-2.56,100,7,0"), "row 3: negative peak_rps_per_vm -2.56"},
		"config neg demand":    {withLine(1, "config,40,0.5,0,2,3,0.92,-1"), "row 2: negative demand_scale -1"},
		"vm field count":       {withLine(firstVM, "vm,1,2"), "vm record has 3 fields"},
		"vm bad kind":          {withLine(firstVM, "vm,0,7,0,-1,0,3600000000000,0,0,0,0,0,0,0"), "invalid VM kind 7"},
		"vm duplicate id":      {withLine(firstVM+1, lines[firstVM]), "VM ids must be dense"},
		"vm shifted id":        {withLine(firstVM, "vm,5,0,0,-1,0,3600000000000,0,0,0,0,0,0,0"), "VM id 5, want 0"},
		"vm bad arrival":       {withLine(firstVM, "vm,0,0,0,-1,-5,3600000000000,0,0,0,0,0,0,0"), "negative VM arrival"},
		"vm out of order":      {withLine(firstVM, "vm,0,0,0,-1,500,3600000000000,0,0,0,0,0,0,0"), "must be sorted by arrival"},
		"vm bad lifetime":      {withLine(firstVM, "vm,0,0,0,-1,0,0,0,0,0,0,0,0,0"), "non-positive VM lifetime"},
		"vm unknown endpoint":  {withLine(firstVM, "vm,0,1,-1,99,0,3600000000000,0,0,0,0,0,0,0"), "undeclared endpoint 99"},
		"iaas vm endpoint":     {withLine(firstVM, "vm,0,0,3,2,0,3600000000000,0,0,0,0,0,0,0"), "IaaS VM has endpoint 2, want -1"},
		"nan load field":       {withLine(firstVM, "vm,0,0,0,-1,0,3600000000000,NaN,0,0,0,0,0,0"), "non-finite value"},
		"inf rate field":       {withLine(2, "endpoint,0,5,1024,256,+Inf,0,0,0,0,1,2.5,100,3,0"), "non-finite value"},
		"v1 row with v2 count": {withLine(firstVM, strings.Join(strings.Split(lines[firstVM], ",")[:vmColsV1], ",")), "vm record has 13 fields, want 14"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadWorkloadCSV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), "trace:") {
				t.Errorf("error %q is not wrapped with the trace: prefix", err)
			}
		})
	}
}

// TestWorkloadCSVReadsV1 pins backward compatibility with v1 files (recorded
// before time_warp existed): the v1 layout — no trailing time_scale column —
// still parses, with every pattern unscaled (TimeScale 0), and re-exports in
// the v2 layout that round-trips to the same workload.
func TestWorkloadCSVReadsV1(t *testing.T) {
	v1 := "tapas-workload,v1\n" +
		"config,40,0.5,3600000000000,1,3,0.92,0.8\n" +
		"endpoint,0,5,1024,256,0.25,0.65,1,0.25,0.05,42,2.5,100,7\n" +
		"vm,0,0,3,-1,0,3600000000000,0.3,0.4,0,0.1,0.05,9\n" +
		"vm,1,1,-1,0,600000000000,3600000000000,0,0,0,0,0,0\n"
	w, err := ReadWorkloadCSV(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.VMs) != 2 || len(w.Endpoints) != 1 {
		t.Fatalf("v1 parse: %d VMs / %d endpoints", len(w.VMs), len(w.Endpoints))
	}
	if w.VMs[0].Load.TimeScale != 0 || w.Endpoints[0].Rate.TimeScale != 0 {
		t.Error("v1 parse must leave TimeScale unset (0 = unscaled)")
	}
	var buf bytes.Buffer
	if err := WriteWorkloadCSV(&buf, w); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "tapas-workload,v2\n") {
		t.Errorf("re-export must be v2, got %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	again, err := ReadWorkloadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, w) {
		t.Error("v1 workload changed across a v2 re-export round trip")
	}
	// A v1 row inside a v2 file (and vice versa) is rejected by field count,
	// covered in TestReadWorkloadCSVErrors.
}

// TestSaveLoadWorkloadCSV exercises the file-level helpers.
func TestSaveLoadWorkloadCSV(t *testing.T) {
	w := genWorkload(t, WorkloadConfig{
		Servers: 40, SaaSFraction: 0.4, Duration: 2 * time.Hour, Endpoints: 2, Seed: 11,
	})
	path := t.TempDir() + "/wl.csv"
	if err := SaveWorkloadCSV(path, w); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWorkloadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Error("workload differs after save/load")
	}
	if _, err := LoadWorkloadCSV(path + ".missing"); err == nil {
		t.Error("missing file must error")
	}
}

// TestSharedChecksAllocFree pins the shared per-record checks at zero
// allocations on valid input: the readers call them for every row of every
// trace and request log a campaign loads.
func TestSharedChecksAllocFree(t *testing.T) {
	w := genWorkload(t, WorkloadConfig{
		Servers: 40, SaaSFraction: 0.5, Duration: time.Hour, Endpoints: 2, Seed: 3,
	})
	reqs := w.Endpoints[0].Requests(0, time.Minute, 1)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := ValidateRequests(reqs, len(w.Endpoints)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate and ValidateRequests allocate %v times per call, want 0", allocs)
	}
}

// TestReaderAndValidateAgree: ReadWorkloadCSV and Workload.Validate reject a
// malformed record through the same check, so for each fault the error each
// wraps around its location (row, or record index) is the same.
func TestReaderAndValidateAgree(t *testing.T) {
	faults := map[string]func(w *Workload){
		"servers":               func(w *Workload) { w.Config.Servers = 0 },
		"saas fraction":         func(w *Workload) { w.Config.SaaSFraction = -0.5 },
		"duration":              func(w *Workload) { w.Config.Duration = -time.Second },
		"endpoint id":           func(w *Workload) { w.Endpoints[1].ID = 0 },
		"num_vms":               func(w *Workload) { w.Endpoints[1].NumVMs = -1 },
		"prompt tokens":         func(w *Workload) { w.Endpoints[0].Work.AvgPromptTokens = 0 },
		"output tokens":         func(w *Workload) { w.Endpoints[0].Work.AvgOutputTokens = -256 },
		"peak rps":              func(w *Workload) { w.Endpoints[0].PeakRPSPerVM = -2.56 },
		"demand scale":          func(w *Workload) { w.Config.DemandScale = -1 },
		"vm id":                 func(w *Workload) { w.VMs[2].ID = 9 },
		"vm kind":               func(w *Workload) { w.VMs[2].Kind = 7 },
		"first arrival":         func(w *Workload) { w.VMs[0].Arrival = -time.Second },
		"unsorted":              func(w *Workload) { w.VMs[len(w.VMs)-2].Arrival = w.VMs[len(w.VMs)-1].Arrival + 1 },
		"lifetime":              func(w *Workload) { w.VMs[3].Lifetime = 0 },
		"saas endpoint":         func(w *Workload) { w.VMs[firstOf(w, SaaS)].Endpoint = len(w.Endpoints) },
		"iaas endpoint":         func(w *Workload) { w.VMs[firstOf(w, IaaS)].Endpoint = 0 },
		"negative and unsorted": func(w *Workload) { w.VMs[len(w.VMs)-1].Arrival = w.VMs[len(w.VMs)-2].Arrival - 1 },
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			w := genWorkload(t, WorkloadConfig{
				Servers: 40, SaaSFraction: 0.5, Duration: time.Hour, Endpoints: 2, Seed: 3,
			})
			fault(w)
			verr := w.Validate()
			var buf bytes.Buffer
			if err := WriteWorkloadCSV(&buf, w); err != nil {
				t.Fatal(err)
			}
			_, rerr := ReadWorkloadCSV(&buf)
			if verr == nil || rerr == nil {
				t.Fatalf("Validate: %v; ReadWorkloadCSV: %v; want both to reject", verr, rerr)
			}
			if v, r := errors.Unwrap(verr), errors.Unwrap(rerr); v == nil || r == nil || v.Error() != r.Error() {
				t.Errorf("different checks fired:\nValidate:       %v\nReadWorkloadCSV: %v", verr, rerr)
			}
		})
	}
}

// TestValidateRejectsNaNDemand: the CSV reader refuses non-finite fields
// before the record checks run, so a NaN demand factor reaches the checks
// only from a workload built in memory; Validate must refuse it there.
func TestValidateRejectsNaNDemand(t *testing.T) {
	for name, fault := range map[string]func(w *Workload){
		"output tokens": func(w *Workload) { w.Endpoints[0].Work.AvgOutputTokens = math.NaN() },
		"peak rps":      func(w *Workload) { w.Endpoints[0].PeakRPSPerVM = math.NaN() },
		"demand scale":  func(w *Workload) { w.Config.DemandScale = math.NaN() },
	} {
		w := genWorkload(t, WorkloadConfig{
			Servers: 40, SaaSFraction: 0.5, Duration: time.Hour, Endpoints: 2, Seed: 3,
		})
		fault(w)
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s NaN: err = %v, want an error naming the NaN", name, err)
		}
	}
}

// firstOf returns the index of w's first VM of the given kind.
func firstOf(w *Workload, kind VMKind) int {
	for i := range w.VMs {
		if w.VMs[i].Kind == kind {
			return i
		}
	}
	panic("no VM of kind " + kind.String())
}
