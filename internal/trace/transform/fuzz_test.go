package transform

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/trace"
)

// FuzzParseChain pins the chain decoder's contracts: no input panics, every
// rejection is a wrapped descriptive "transform:" error, the canonical
// encoding is a fixed point (parse → marshal → parse reproduces the chain),
// and chains that apply cleanly to a workload produce structurally valid
// output that survives the workload-CSV round trip.
func FuzzParseChain(f *testing.F) {
	seeds := []string{
		`[]`,
		`[{"op":"time_warp","factor":0.5}]`,
		`[{"op":"time_warp","factor":1}]`,
		`[{"op":"demand_scale","factor":2}]`,
		`[{"op":"demand_scale","iaas":0.5,"saas":2,"seed":7}]`,
		`[{"op":"endpoint_filter","kind":"iaas"}]`,
		`[{"op":"endpoint_filter","keep":[0,1]}]`,
		`[{"op":"endpoint_filter","drop":[0]}]`,
		`[{"op":"endpoint_filter"}]`,
		`[{"op":"jitter","sigma":"90s","seed":3}]`,
		`[{"op":"splice","trace":"other.csv","offset":"1h"}]`,
		`[{"op":"time_warp","factor":0.5},{"op":"demand_scale","factor":2},{"op":"jitter","sigma":"2m"}]`,
		`[{"op":"resample"}]`,
		`[{"factor":2}]`,
		`[{"op":"demand_scale","factor":1e99}]`,
		`[{"op":"jitter","sigma":90}]`,
		`[null]`,
		`{}`,
		`[`,
		``,
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	// One small fixed workload shared by every apply probe (the fuzzer only
	// varies the chain, so a package-level fixture keeps iterations fast).
	wl, err := trace.Generate(trace.WorkloadConfig{
		Servers: 30, SaaSFraction: 0.5, Duration: time.Hour, Endpoints: 2, Seed: 6,
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			msg := err.Error()
			if !strings.Contains(msg, "transform:") {
				t.Errorf("error %q lacks the transform: wrapping", msg)
			}
			if strings.TrimSpace(msg) == "transform:" {
				t.Errorf("error %q is not descriptive", msg)
			}
			return
		}
		// Canonical fixed point.
		canon := c.String()
		again, err := Parse([]byte(canon))
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if again.String() != canon {
			t.Errorf("canonical encoding is not a fixed point: %q -> %q", canon, again.String())
		}

		// Apply probe: chains that apply cleanly must emit valid workloads
		// that round-trip through the CSV archive; chains that fail must
		// fail with a wrapped error (e.g. unloaded splices, emptied fleets).
		out, err := c.Apply(wl)
		if err != nil {
			if !strings.Contains(err.Error(), "transform:") {
				t.Errorf("apply error %q lacks the transform: wrapping", err)
			}
			return
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("chain %s produced an invalid workload: %v", canon, err)
		}
		var buf strings.Builder
		if err := trace.WriteWorkloadCSV(&buf, out); err != nil {
			t.Fatalf("chain %s output does not archive: %v", canon, err)
		}
		reread, err := trace.ReadWorkloadCSV(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("chain %s archive does not re-parse: %v", canon, err)
		}
		if !reflect.DeepEqual(reread, out) {
			t.Errorf("chain %s output changed across the CSV round trip", canon)
		}
	})
}
