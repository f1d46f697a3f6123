package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/llm"
)

// TestWriteVMsCSV pins the flat VM table byte for byte: one row per VM with
// its load pattern's floats in shortest round-trip form, and no time_scale
// column, so a time-warped pattern's scale is not written.
func TestWriteVMsCSV(t *testing.T) {
	vms := []VMSpec{
		{ID: 0, Kind: IaaS, Customer: 3, Endpoint: -1, Arrival: 0, Lifetime: time.Hour,
			Load: LoadPattern{Base: 0.3, DiurnalAmp: 0.4, PhaseHours: 1.5, WeekendDip: 0.1, NoiseAmp: 0.05, Seed: 9, TimeScale: 2}},
		{ID: 1, Kind: SaaS, Customer: 0, Endpoint: 2, Arrival: 10 * time.Minute, Lifetime: 20 * time.Minute},
	}
	var buf bytes.Buffer
	if err := WriteVMsCSV(&buf, vms); err != nil {
		t.Fatal(err)
	}
	want := "id,kind,customer,endpoint,arrival_ns,lifetime_ns,base,amp,phase,weekend_dip,noise,seed\n" +
		"0,0,3,-1,0,3600000000000,0.3,0.4,1.5,0.1,0.05,9\n" +
		"1,1,0,2,600000000000,1200000000000,0,0,0,0,0,0\n"
	if got := buf.String(); got != want {
		t.Errorf("flat VM table:\n%s\nwant:\n%s", got, want)
	}
}

func TestRequestsCSVRoundTrip(t *testing.T) {
	w, err := Generate(WorkloadConfig{
		Servers: 100, SaaSFraction: 0.5, Duration: 24 * time.Hour,
		Endpoints: 2, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := w.Endpoints[0].Requests(0, 2*time.Minute, 1)
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	var buf bytes.Buffer
	if err := WriteRequestsCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequestsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip lost requests: %d vs %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("request %d differs:\n%+v\n%+v", i, got[i], reqs[i])
		}
	}
}

func TestReadRequestsCSVErrors(t *testing.T) {
	const header = "id,customer,endpoint,prompt,output,arrival_ns\n"
	cases := map[string]struct {
		in      string
		wantSub string
	}{
		"empty":             {"", "empty requests CSV"},
		"short row":         {header + "0,2,3\n", "row 2"},
		"bad id":            {header + "x,2,0,3,4,5\n", "row 2: id"},
		"bad customer":      {header + "0,x,0,3,4,5\n", "row 2: customer"},
		"bad endpoint":      {header + "0,2,x,3,4,5\n", "row 2: endpoint"},
		"negative endpoint": {header + "0,2,-1,3,4,5\n", "row 2: negative endpoint"},
		"bad prompt":        {header + "0,2,0,x,4,5\n", "row 2: prompt"},
		"bad output":        {header + "0,2,0,3,x,5\n", "row 2: output"},
		"bad arrival":       {header + "0,2,0,3,4,x\n", "row 2: arrival"},
		"wrong header":      {"a,b,c,d,e,f\n", `column 1 is "a", want "id"`},
		"header count":      {"id,customer\n", "header has 2 columns, want 6"},
		"legacy header":     {"id,customer,prompt,output,arrival_ns\n0,2,3,4,5\n", "header has 5 columns, want 6"},
		"first id":          {header + "1,2,0,3,4,5\n", "row 2: request id 1, want 0"},
		"duplicate id":      {header + "0,2,0,3,4,5\n0,2,0,3,4,6\n", "row 3: request id 0, want 1"},
		"skipped id":        {header + "0,2,0,3,4,5\n2,2,0,3,4,6\n", "row 3: request id 2, want 1"},
		"negative prompt":   {header + "0,2,0,-3,4,5\n", "row 2: negative token count"},
		"negative output":   {header + "0,2,0,3,-4,5\n", "row 2: negative token count"},
		"negative arrival":  {header + "0,2,0,3,4,-5\n", "row 2: negative arrival"},
		"unsorted arrival":  {header + "0,2,0,3,4,900\n1,2,0,3,4,100\n", "row 3: arrival 100ns before the previous request's 900ns"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadRequestsCSV(strings.NewReader(tc.in))
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

// TestWriteRequestsCSVRejectsInvalid pins the writer side of the shared
// validation: a stream the reader would refuse is rejected at write time
// instead of being archived.
func TestWriteRequestsCSVRejectsInvalid(t *testing.T) {
	one := func(r llm.Request) []llm.Request { return []llm.Request{r} }
	cases := map[string]struct {
		reqs    []llm.Request
		wantSub string
	}{
		"negative prompt":  {one(llm.Request{PromptTokens: -1, OutputTokens: 1}), "request 0: negative token count"},
		"negative arrival": {one(llm.Request{PromptTokens: 1, OutputTokens: 1, Arrival: -time.Second}), "request 0: negative arrival"},
		"unsorted": {[]llm.Request{
			{ID: 0, PromptTokens: 1, OutputTokens: 1, Arrival: time.Minute},
			{ID: 1, PromptTokens: 1, OutputTokens: 1, Arrival: time.Second},
		}, "request 1: arrival 1s before the previous request's 1m0s"},
		"duplicate id": {[]llm.Request{
			{ID: 0, PromptTokens: 1, OutputTokens: 1, Arrival: time.Second},
			{ID: 0, PromptTokens: 1, OutputTokens: 1, Arrival: time.Minute},
		}, "request 1: request id 0, want 1"},
		"sparse ids": {[]llm.Request{
			{ID: 0, PromptTokens: 1, OutputTokens: 1, Arrival: time.Second},
			{ID: 5, PromptTokens: 1, OutputTokens: 1, Arrival: time.Minute},
		}, "request 1: request id 5, want 1"},
		"negative endpoint": {one(llm.Request{Endpoint: -1, PromptTokens: 1, OutputTokens: 1}), "request 0: negative endpoint -1"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			err := WriteRequestsCSV(&buf, tc.reqs)
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
