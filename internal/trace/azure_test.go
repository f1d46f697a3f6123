package trace

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/llm"
)

const azureHeader = "timestamp,endpoint,prompt_tokens,output_tokens\n"

// synthAzureCSV builds a deterministic two-endpoint request log with a clear
// diurnal peak: "chat" runs 10x hotter mid-window than at the edges, "code"
// is flat and light.
func synthAzureCSV(hours int) string {
	var sb strings.Builder
	sb.WriteString(azureHeader)
	for h := 0; h < hours; h++ {
		// chat: 2 requests/min at the peak hour, 1 every 5 minutes off-peak.
		perHour := 12
		if h == hours/2 {
			perHour = 120
		}
		for i := 0; i < perHour; i++ {
			sec := h*3600 + i*3600/perHour
			fmt.Fprintf(&sb, "%d,chat,%d,%d\n", sec, 800+i%100, 150+i%20)
			if i%6 == 0 {
				fmt.Fprintf(&sb, "%d,code,%d,%d\n", sec, 2000, 60)
			}
		}
	}
	return sb.String()
}

func TestReadAzureLLMCSVReconstruction(t *testing.T) {
	in := synthAzureCSV(6)
	wl, err := ReadAzureLLMCSV(strings.NewReader(in), AzureImportConfig{Servers: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatalf("imported workload invalid: %v", err)
	}
	if len(wl.Endpoints) != 2 {
		t.Fatalf("endpoints %d, want 2", len(wl.Endpoints))
	}
	if wl.Config.Servers != 80 || wl.Config.SaaSFraction != 1 {
		t.Errorf("config %+v: want 80 servers, all-SaaS", wl.Config)
	}
	if want := 6 * time.Hour; wl.Config.Duration != want {
		t.Errorf("window %v, want %v", wl.Config.Duration, want)
	}

	chat, code := wl.Endpoints[0], wl.Endpoints[1]
	// chat carries ~10x the tokens; the VM split follows the weights.
	if chat.NumVMs <= code.NumVMs {
		t.Errorf("chat got %d VMs, code %d; the hot endpoint must dominate", chat.NumVMs, code.NumVMs)
	}
	total := 0
	for _, ep := range wl.Endpoints {
		total += ep.NumVMs
	}
	occupied := 0.92 * float64(wl.Config.Servers)
	if want := int(occupied); total != want {
		t.Errorf("total SaaS VMs %d, want %d (servers × occupancy)", total, want)
	}
	if len(wl.VMs) != total {
		t.Errorf("VM records %d, want %d", len(wl.VMs), total)
	}

	// The fitted peak preserves the observed peak request rate exactly:
	// pattern value 1 × PeakRPSPerVM × NumVMs = max binned rate. The peak
	// hour spreads 120 chat requests evenly, 20 per 10-minute bin.
	if got, want := chat.PeakRPSPerVM*float64(chat.NumVMs), 20.0/600.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("chat peak RPS %v, want %v (20 requests per peak 10m bin)", got, want)
	}
	// Token means reproduce the log's averages.
	if chat.Work.AvgPromptTokens < 800 || chat.Work.AvgPromptTokens > 900 {
		t.Errorf("chat avg prompt %v, want in [800, 900]", chat.Work.AvgPromptTokens)
	}
	if code.Work.AvgPromptTokens != 2000 || code.Work.AvgOutputTokens != 60 {
		t.Errorf("code token means (%v, %v), want (2000, 60)", code.Work.AvgPromptTokens, code.Work.AvgOutputTokens)
	}

	// Determinism: same file, same config, same workload.
	again, err := ReadAzureLLMCSV(strings.NewReader(in), AzureImportConfig{Servers: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, wl) {
		t.Error("import is not deterministic")
	}
}

// TestReadAzureLLMCSVAbsoluteTimestamps covers the RFC 3339 and
// Azure-dataset forms; the first row anchors the epoch.
func TestReadAzureLLMCSVAbsoluteTimestamps(t *testing.T) {
	in := azureHeader +
		"2023-11-16 18:00:00.0000000,chat,512,128\n" +
		"2023-11-16 18:20:00.0000000,chat,1024,256\n" +
		"2023-11-16 19:00:00.0000000,chat,256,64\n"
	wl, err := ReadAzureLLMCSV(strings.NewReader(in), AzureImportConfig{Servers: 40})
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Hour + 10*time.Minute; wl.Config.Duration != want {
		t.Errorf("window %v, want %v (last request at +1h, 10m bins)", wl.Config.Duration, want)
	}

	rfc := azureHeader +
		"2024-01-01T00:00:00Z,chat,512,128\n" +
		"2024-01-01T00:30:00Z,chat,512,128\n"
	if _, err := ReadAzureLLMCSV(strings.NewReader(rfc), AzureImportConfig{Servers: 40}); err != nil {
		t.Errorf("RFC 3339 timestamps must parse: %v", err)
	}
}

func TestReadAzureLLMCSVErrors(t *testing.T) {
	cases := map[string]struct {
		in      string
		cfg     AzureImportConfig
		wantSub string
	}{
		"empty":           {"", AzureImportConfig{Servers: 40}, "empty"},
		"no rows":         {azureHeader, AzureImportConfig{Servers: 40}, "no request rows"},
		"wrong header":    {"time,endpoint,prompt_tokens,output_tokens\n", AzureImportConfig{Servers: 40}, `column 1 is "time"`},
		"header count":    {"timestamp,endpoint\n", AzureImportConfig{Servers: 40}, "header has 2 columns"},
		"bad timestamp":   {azureHeader + "noon,chat,1,1\n", AzureImportConfig{Servers: 40}, "row 2: timestamp"},
		"negative ts":     {azureHeader + "-5,chat,1,1\n", AzureImportConfig{Servers: 40}, "negative timestamp"},
		"unsorted":        {azureHeader + "10,chat,1,1\n5,chat,1,1\n", AzureImportConfig{Servers: 40}, "sorted by timestamp"},
		"mixed modes":     {azureHeader + "0,chat,1,1\n2024-01-01T00:00:00Z,chat,1,1\n", AzureImportConfig{Servers: 40}, "mixes absolute and relative"},
		"beyond window":   {azureHeader + "99999999999,chat,1,1\n", AzureImportConfig{Servers: 40}, "import window"},
		"negative tokens": {azureHeader + "0,chat,-1,1\n", AzureImportConfig{Servers: 40}, "negative token count"},
		"bad tokens":      {azureHeader + "0,chat,x,1\n", AzureImportConfig{Servers: 40}, "prompt_tokens"},
		"empty endpoint":  {azureHeader + "0,,1,1\n", AzureImportConfig{Servers: 40}, "empty endpoint name"},
		"no servers":      {azureHeader + "0,chat,1,1\n", AzureImportConfig{}, "non-positive server count"},
		"bad bin":         {azureHeader + "0,chat,1,1\n", AzureImportConfig{Servers: 40, Bin: time.Second}, "bin 1s out of"},
		"bad occupancy":   {azureHeader + "0,chat,1,1\n", AzureImportConfig{Servers: 40, Occupancy: 2}, "occupancy"},
		"fleet too small": {azureHeader + "0,a,1,1\n0,b,1,1\n0,c,1,1\n", AzureImportConfig{Servers: 2}, "fewer than the 3 endpoints"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadAzureLLMCSV(strings.NewReader(tc.in), tc.cfg)
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

// TestAzureImportRoundTrip proves the reconstructed workload archives
// exactly: the CSV round trip reproduces the imported struct bit for bit.
func TestAzureImportRoundTrip(t *testing.T) {
	wl, err := ReadAzureLLMCSV(strings.NewReader(synthAzureCSV(4)), AzureImportConfig{Servers: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWorkloadCSV(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkloadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wl) {
		t.Error("imported workload changed across the CSV round trip")
	}
}

// TestAzureImportFixture pins the committed miniature fixture: it must
// import cleanly with the documented defaults and keep its endpoint count.
func TestAzureImportFixture(t *testing.T) {
	wl, err := LoadAzureLLMCSV("../../examples/traces/azure-llm-sample.csv", AzureImportConfig{Servers: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Endpoints) != 3 {
		t.Errorf("fixture endpoints %d, want 3 (chat, code, search)", len(wl.Endpoints))
	}
	if err := wl.Validate(); err != nil {
		t.Errorf("fixture import invalid: %v", err)
	}
	if wl.Config.Duration < time.Hour {
		t.Errorf("fixture window %v, want at least an hour", wl.Config.Duration)
	}
}

// TestReadAzureLLMCSVRequests pins the import's request-log passthrough: one
// request per source row, and a log that request-level replay accepts
// against the reconstructed workload.
func TestReadAzureLLMCSVRequests(t *testing.T) {
	// Absolute timestamps: the first row anchors trace start.
	const small = azureHeader +
		"2024-01-01T00:00:10Z,chat,512,128\n" +
		"2024-01-01T00:00:40Z,code,900,40\n" +
		"2024-01-01T00:01:00Z,chat,256,64\n" +
		"2024-01-01T00:05:00Z,search,100,10\n"
	cfg := AzureImportConfig{Servers: 40, Seed: 7}
	cases := []struct {
		name        string
		in          string
		maxRequests int
		check       func(t *testing.T, wl *Workload, reqs []llm.Request, err error)
	}{
		{"one request per row", small, azureMaxRequests, func(t *testing.T, wl *Workload, reqs []llm.Request, err error) {
			if err != nil {
				t.Fatal(err)
			}
			want := []llm.Request{
				{ID: 0, Endpoint: 0, PromptTokens: 512, OutputTokens: 128, Arrival: 0},
				{ID: 1, Endpoint: 1, PromptTokens: 900, OutputTokens: 40, Arrival: 30 * time.Second},
				{ID: 2, Endpoint: 0, PromptTokens: 256, OutputTokens: 64, Arrival: 50 * time.Second},
				{ID: 3, Endpoint: 2, PromptTokens: 100, OutputTokens: 10, Arrival: 290 * time.Second},
			}
			if len(reqs) != len(want) {
				t.Fatalf("got %d requests, want %d", len(reqs), len(want))
			}
			for i, r := range reqs {
				if r.Customer < 0 || r.Customer >= azureCustomerCount {
					t.Errorf("request %d: customer %d outside [0, %d)", i, r.Customer, azureCustomerCount)
				}
				r.Customer = 0
				if r != want[i] {
					t.Errorf("request %d: got %+v, want %+v", i, r, want[i])
				}
			}
		}},
		{"customers repeat for a seed", synthAzureCSV(6), azureMaxRequests, func(t *testing.T, wl *Workload, reqs []llm.Request, err error) {
			if err != nil {
				t.Fatal(err)
			}
			_, again, err := readAzureLLMCSV(strings.NewReader(synthAzureCSV(6)), cfg, azureMaxRequests)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, reqs) {
				t.Error("the same file and seed gave a different request log")
			}
			other := cfg
			other.Seed++
			_, reseeded, err := readAzureLLMCSV(strings.NewReader(synthAzureCSV(6)), other, azureMaxRequests)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(reseeded, reqs) {
				t.Error("another seed gave the same customers")
			}
		}},
		{"cap", small, 3, func(t *testing.T, wl *Workload, reqs []llm.Request, err error) {
			if err == nil || !strings.Contains(err.Error(), "row 5: more than 3 requests") {
				t.Errorf("got %v, want the request cap at row 5", err)
			}
		}},
		{"replayable log", synthAzureCSV(6), azureMaxRequests, func(t *testing.T, wl *Workload, reqs []llm.Request, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateRequests(reqs, len(wl.Endpoints)); err != nil {
				t.Errorf("imported log fails the shared request check: %v", err)
			}
			var buf bytes.Buffer
			if err := WriteRequestsCSV(&buf, reqs); err != nil {
				t.Fatalf("imported log does not archive: %v", err)
			}
			got, err := ReadRequestsCSV(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, reqs) {
				t.Error("imported log changed across a requests CSV round trip")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl, reqs, err := readAzureLLMCSV(strings.NewReader(tc.in), cfg, tc.maxRequests)
			tc.check(t, wl, reqs, err)
		})
	}
}

// TestLoadAzureLLMCSVRequests covers the exported file and reader wrappers on
// the committed fixture: every data row becomes one request.
func TestLoadAzureLLMCSVRequests(t *testing.T) {
	const path = "../../examples/traces/azure-llm-sample.csv"
	wl, reqs, err := LoadAzureLLMCSVRequests(path, AzureImportConfig{Servers: 40})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(data), "\n") - 1; len(reqs) != rows {
		t.Errorf("got %d requests, want one per data row (%d)", len(reqs), rows)
	}
	if err := ValidateRequests(reqs, len(wl.Endpoints)); err != nil {
		t.Errorf("fixture log fails the shared request check: %v", err)
	}
	if _, _, err := LoadAzureLLMCSVRequests(path+".missing", AzureImportConfig{Servers: 40}); err == nil {
		t.Error("missing file must error")
	}
}
