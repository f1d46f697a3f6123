package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The fuzzers pin two contracts on every CSV reader: no input may panic, and
// every rejection must surface as a wrapped, descriptive error (the "trace:"
// prefix carries the package and, for row-level problems, the 1-based row).
// Accepted inputs must additionally pass the shared in-memory checks
// (Workload.Validate, ValidateRequests) and survive a write→read round trip,
// so the readers, the writers and the checks cannot drift apart.

func seedWorkloadCSV(f *testing.F) {
	w, err := Generate(WorkloadConfig{
		Servers: 40, SaaSFraction: 0.5, Duration: time.Hour, Endpoints: 2, Seed: 9,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWorkloadCSV(&buf, w); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add([]byte(valid))
	f.Add([]byte(strings.ReplaceAll(valid, "\n", "\r\n")))
	f.Add([]byte(strings.TrimRight(valid, "\n")))
	lines := strings.SplitAfter(valid, "\n")
	f.Add([]byte(strings.Join(lines[:2], ""))) // version+config only
	f.Add([]byte("tapas-workload,v1\n"))
	f.Add([]byte("tapas-workload,v2\nconfig,1\n"))
	f.Add([]byte("tapas-workload,v99\nconfig,80,0.5,0,3,42,0.92,0.8\n"))
	f.Add([]byte("config,80,0.5,0,3,42,0.92,0.8\n")) // missing version line
	f.Add([]byte(`"tapas-workload","v1"` + "\n"))
	// v1 files (no time_scale column) stay parseable; v1 rows under a v2
	// version line (and vice versa) are field-count errors.
	f.Add([]byte("tapas-workload,v1\nconfig,80,0.5,0,3,42,0.92,0.8\nvm,0,0,0,-1,0,1,0,0,0,0,0,0\nvm,0,0,0,-1,0,1,0,0,0,0,0,0\n"))
	f.Add([]byte("tapas-workload,v1\nconfig,80,0.5,0,3,42,0.92,0.8\nvm,0,1,-1,7,0,1,0,0,0,0,0,0\n"))
	f.Add([]byte("tapas-workload,v1\nconfig,80,0.5,3600000000000,1,42,0.92,0.8\nendpoint,0,5,1024,256,0.25,0.65,1,0.25,0.05,42,2.5,100,7\nvm,0,1,-1,0,0,3600000000000,0,0,0,0,0,0\n"))
	f.Add([]byte("tapas-workload,v2\nconfig,80,0.5,0,3,42,0.92,0.8\nvm,0,0,0,-1,0,1,0,0,0,0,0,0\n"))
	f.Add([]byte("tapas-workload,v2\nconfig,80,0.5,0,3,42,0.92,0.8\nvm,0,0,0,-1,0,1,0,0,0,0,0,0,0.5\n"))
	f.Add([]byte("\x00\xff,broken\n"))
	f.Add([]byte(""))
}

func checkFuzzErr(t *testing.T, err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	if !strings.Contains(msg, "trace:") {
		t.Errorf("error %q lacks the trace: wrapping", msg)
	}
	if strings.TrimSpace(msg) == "trace:" {
		t.Errorf("error %q is not descriptive", msg)
	}
}

func FuzzReadWorkloadCSV(f *testing.F) {
	seedWorkloadCSV(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := ReadWorkloadCSV(bytes.NewReader(data))
		if err != nil {
			checkFuzzErr(t, err)
			return
		}
		if err := wl.Validate(); err != nil {
			t.Fatalf("accepted workload fails Validate: %v", err)
		}
		// Accepted input must re-serialize and re-parse to the exact same
		// workload (sound because non-finite floats are rejected above).
		var buf bytes.Buffer
		if err := WriteWorkloadCSV(&buf, wl); err != nil {
			t.Fatalf("re-serializing accepted workload: %v", err)
		}
		again, err := ReadWorkloadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing re-serialized workload: %v", err)
		}
		if !reflect.DeepEqual(again, wl) {
			t.Error("accepted workload changed across a write→read round trip")
		}
	})
}

// FuzzReadAzureLLMCSV pins the Azure-style request-log importer: no input
// panics, every rejection is a wrapped descriptive "trace:" error, and every
// accepted input reconstructs a structurally valid workload that survives
// the workload-CSV archive round trip exactly.
func FuzzReadAzureLLMCSV(f *testing.F) {
	const header = "timestamp,endpoint,prompt_tokens,output_tokens\n"
	seeds := []string{
		header + "0,chat,512,128\n30.5,chat,1024,256\n61,code,2048,64\n",
		header + "0,chat,512,128\n",
		header + "2023-11-16T18:01:51Z,chat,512,128\n2023-11-16T18:02:12Z,code,900,40\n",
		header + "2023-11-16 18:01:51.1627340,chat,512,128\n2023-11-16 18:03:00.5,chat,700,90\n",
		header + "10,chat,512,128\n5,chat,1024,256\n",                  // unsorted
		header + "0,chat,-5,128\n",                                     // negative tokens
		header + "0,,512,128\n",                                        // empty endpoint
		header + "1e18,chat,512,128\n",                                 // beyond the window
		header + "0,chat,512,128\n2023-11-16T18:01:51Z,chat,512,128\n", // mixed modes
		header,
		"time,endpoint,prompt_tokens,output_tokens\n0,chat,1,1\n",
		"",
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	cfg := AzureImportConfig{Servers: 40, Seed: 7}
	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := ReadAzureLLMCSV(bytes.NewReader(data), cfg)
		if err != nil {
			checkFuzzErr(t, err)
			return
		}
		if err := wl.Validate(); err != nil {
			t.Fatalf("accepted import is structurally invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteWorkloadCSV(&buf, wl); err != nil {
			t.Fatalf("re-serializing imported workload: %v", err)
		}
		again, err := ReadWorkloadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing re-serialized import: %v", err)
		}
		if !reflect.DeepEqual(again, wl) {
			t.Error("imported workload changed across a write→read round trip")
		}
	})
}

func FuzzReadRequestsCSV(f *testing.F) {
	w, err := Generate(WorkloadConfig{
		Servers: 30, SaaSFraction: 1, Duration: time.Hour, Endpoints: 1, Seed: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	// A few rows, not the whole minute: the fuzzer spends its budget
	// minimizing mutations of its seeds, and a 44-KB seed stalls it.
	reqs := w.Endpoints[0].Requests(0, time.Minute, 1)[:4]
	var buf bytes.Buffer
	if err := WriteRequestsCSV(&buf, reqs); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add([]byte(valid))
	f.Add([]byte(strings.TrimRight(valid, "\n")))
	f.Add([]byte("id,customer,endpoint,prompt,output,arrival_ns\n0,2,3\n"))
	f.Add([]byte("id,customer,endpoint,prompt,output,arrival_ns\nx,2,0,3,4,5\n"))
	f.Add([]byte("\xef\xbb\xbfid,customer,endpoint,prompt,output,arrival_ns\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadRequestsCSV(bytes.NewReader(data))
		if err != nil {
			checkFuzzErr(t, err)
			return
		}
		// The smallest endpoint set the log could replay against (the reader
		// refuses endpoint math.MaxInt, so the +1 cannot overflow).
		endpoints := 0
		for _, r := range reqs {
			endpoints = max(endpoints, r.Endpoint+1)
		}
		if err := ValidateRequests(reqs, endpoints); err != nil {
			t.Fatalf("accepted log fails ValidateRequests: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteRequestsCSV(&buf, reqs); err != nil {
			t.Fatalf("re-serializing accepted requests: %v", err)
		}
		again, err := ReadRequestsCSV(&buf)
		if err != nil {
			t.Fatalf("re-parsing re-serialized requests: %v", err)
		}
		if !reflect.DeepEqual(again, reqs) {
			t.Error("accepted requests changed across a write→read round trip")
		}
	})
}
