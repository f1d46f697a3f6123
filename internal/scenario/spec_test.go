package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/sim"
)

// TestParseAndValidateErrors pins the error surface of the spec loader:
// typos and invalid values in committed spec files must fail loudly with a
// message naming the problem.
func TestParseAndValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"empty name", `{}`, "no name"},
		{"unknown field", `{"name":"x","oversubscribed":0.4}`, "unknown field"},
		{"bad duration", `{"name":"x","duration":"three hours"}`, "invalid duration"},
		{"numeric duration", `{"name":"x","duration":7}`, "duration must be a string"},
		{"negative tick", `{"name":"x","tick":"-1m"}`, "non-positive tick"},
		{"bad preset", `{"name":"x","layout":{"preset":"medium"}}`, "unknown layout preset"},
		{"bad gpu", `{"name":"x","layout":{"gpu":"B200"}}`, "unknown GPU model"},
		{"bad mix fraction", `{"name":"x","layout":{"mix_gpu":"H100","mix_fraction":1.5}}`, "out of [0,1]"},
		{"mix fraction without mix gpu", `{"name":"x","layout":{"mix_fraction":0.5}}`, "without layout.mix_gpu"},
		{"mix axis without mix gpu", `{"name":"x","axes":[{"param":"layout.mix_fraction","values":[0,0.5]}]}`, "without layout.mix_gpu"},
		{"mix gpu equals gpu", `{"name":"x","layout":{"gpu":"H100","mix_gpu":"H100","mix_fraction":0.5}}`, "needs two generations"},
		{"mix gpu equals implicit base", `{"name":"x","layout":{"mix_gpu":"A100","mix_fraction":0.5}}`, "needs two generations"},
		{"mix gpu equals gpu case-insensitively", `{"name":"x","layout":{"gpu":"h100","mix_gpu":"H100","mix_fraction":0.5}}`, "needs two generations"},
		{"null axis value", `{"name":"x","axes":[{"param":"oversubscribe","values":[0.2,null]}]}`, "not null"},
		{"zero occupancy", `{"name":"x","workload":{"occupancy":0}}`, "out of (0,1]"},
		{"negative occupancy", `{"name":"x","workload":{"occupancy":-0.5}}`, "out of (0,1]"},
		{"zero demand scale", `{"name":"x","workload":{"demand_scale":0}}`, "must be positive"},
		{"zero endpoints", `{"name":"x","workload":{"endpoints":0}}`, "at least 1"},
		{"trailing content", `{"name":"x"} {"policies":["nonsense"]}`, "trailing content"},
		{"bad saas fraction", `{"name":"x","workload":{"saas_fraction":-0.1}}`, "out of [0,1]"},
		{"bad region", `{"name":"x","region":"arctic"}`, "unknown region"},
		{"bad region object", `{"name":"x","region":{"mean":30}}`, "region must be"},
		{"bad failure kind", `{"name":"x","failures":[{"kind":"quake","at":"1h","duration":"1h"}]}`, "unknown failure kind"},
		{"zero failure duration", `{"name":"x","failures":[{"kind":"power","at":"1h","duration":"0s"}]}`, "must be positive"},
		{"bad policy", `{"name":"x","policies":["lru"]}`, "unknown policy"},
		{"bad axis param", `{"name":"x","axes":[{"param":"workload.mix","values":[1]}]}`, "unknown axis param"},
		{"axis no values", `{"name":"x","axes":[{"param":"oversubscribe","values":[]}]}`, "no values"},
		{"axis label mismatch", `{"name":"x","axes":[{"param":"oversubscribe","values":[0,0.2],"labels":["a"]}]}`, "1 labels for 2 values"},
		{"duplicate axis", `{"name":"x","axes":[{"param":"oversubscribe","values":[0]},{"param":"oversubscribe","values":[0.2]}]}`, "swept twice"},
		{"bad report format", `{"name":"x","report":{"format":"xml"}}`, "unknown report format"},
		{"bad metric", `{"name":"x","report":{"metrics":["latency"]}}`, "unknown metric"},
		{"negative scale", `{"name":"x","scale":-1}`, "scale -1 is outside [0, 1]"},
		{"scale above one", `{"name":"x","scale":2}`, "scale 2 is outside [0, 1]"},
		{"negative start offset", `{"name":"x","start_offset":"-5h","duration":"10m"}`, "start_offset -5h0m0s must not be negative"},
		{"zero racks per row", `{"name":"x","layout":{"racks_per_row":0}}`, "layout.racks_per_row 0 must be at least 1"},
		{"negative aisles", `{"name":"x","layout":{"aisles":-3}}`, "layout.aisles -3 must be at least 1"},
		{"zero servers per rack", `{"name":"x","layout":{"preset":"small","servers_per_rack":0}}`, "layout.servers_per_rack 0 must be at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("spec %s accepted", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBaseScenarioScaling checks the presets' scaling rules: aisle
// rounding, the 6-hour duration floor, the 9-hour start offset for short
// large-preset runs, and the seed threading.
func TestBaseScenarioScaling(t *testing.T) {
	s, err := Parse([]byte(`{"name":"x","scale":0.12}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.baseScenario(s.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Layout.Aisles != 2 {
		t.Errorf("aisles = %d, want 2", sc.Layout.Aisles)
	}
	if want := time.Duration(float64(7*24*time.Hour) * 0.12); sc.Duration != want {
		t.Errorf("duration = %v, want %v", sc.Duration, want)
	}
	if sc.StartOffset != 9*time.Hour {
		t.Errorf("start offset = %v, want 9h", sc.StartOffset)
	}
	if sc.Layout.Seed != 42 || sc.Workload.Seed != 42 {
		t.Error("default seed 42 not applied")
	}

	// Explicit fields survive scaling; custom seeds thread through.
	s2, err := Parse([]byte(`{"name":"x","scale":0.12,"seed":7,"start_offset":"3h","layout":{"seed":9}}`))
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := s2.baseScenario(s2.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.StartOffset != 3*time.Hour {
		t.Errorf("explicit start offset overridden to %v", sc2.StartOffset)
	}
	if sc2.Layout.Seed != 9 || sc2.Workload.Seed != 7 {
		t.Errorf("seeds = %d/%d, want 9/7", sc2.Layout.Seed, sc2.Workload.Seed)
	}

	// Explicit durations on the large preset are honored: no paper-week
	// floor at scale 1, proportional shrink (5-minute floor) under scale.
	s2b, err := Parse([]byte(`{"name":"x","duration":"1h"}`))
	if err != nil {
		t.Fatal(err)
	}
	sc2b, err := s2b.baseScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	if sc2b.Duration != time.Hour {
		t.Errorf("explicit 1h duration became %v", sc2b.Duration)
	}
	sc2c, err := s2b.baseScenario(0.12)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(float64(time.Hour) * 0.12); sc2c.Duration != want {
		t.Errorf("explicit 1h duration at scale 0.12 = %v, want %v", sc2c.Duration, want)
	}

	// Small preset: sub-half scale shortens to the 20-minute smoke window.
	s3, err := Parse([]byte(`{"name":"x","scale":0.12,"layout":{"preset":"small"}}`))
	if err != nil {
		t.Fatal(err)
	}
	sc3, err := s3.baseScenario(s3.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if sc3.Duration != 20*time.Minute {
		t.Errorf("small-preset duration = %v, want 20m", sc3.Duration)
	}
	if sc3.Layout.Aisles != 1 {
		t.Errorf("small preset aisles = %d, want 1", sc3.Layout.Aisles)
	}

	// An explicit small-preset duration scales proportionally, with a
	// 5-minute floor; from half scale up the preset runs unscaled.
	s4, err := Parse([]byte(`{"name":"x","duration":"2h","layout":{"preset":"small"}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scale float64
		want  time.Duration
	}{{0.25, 30 * time.Minute}, {0.01, 5 * time.Minute}, {0.5, 2 * time.Hour}} {
		sc4, err := s4.baseScenario(tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		if sc4.Duration != tc.want {
			t.Errorf("explicit 2h small-preset duration at scale %v = %v, want %v", tc.scale, sc4.Duration, tc.want)
		}
	}
}

// TestExpandCartesian checks multi-axis grids expand row-major with the last
// axis fastest, and that axis values mutate the scenario.
func TestExpandCartesian(t *testing.T) {
	s, err := Parse([]byte(`{
		"name": "x",
		"layout": {"preset": "small"},
		"axes": [
			{"param": "oversubscribe", "values": [0, 0.2]},
			{"param": "layout.gpu", "values": ["A100", "H100"]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.baseScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := s.expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expanded %d points, want 4", len(points))
	}
	wantLabels := [][]string{{"0", "A100"}, {"0", "H100"}, {"0.2", "A100"}, {"0.2", "H100"}}
	for i, p := range points {
		if p.Labels[0] != wantLabels[i][0] || p.Labels[1] != wantLabels[i][1] {
			t.Errorf("point %d labels = %v, want %v", i, p.Labels, wantLabels[i])
		}
	}
	if points[3].Scenario.Oversubscribe != 0.2 || points[3].Scenario.Layout.GPU != layout.H100 {
		t.Errorf("axis values not applied: %+v", points[3].Scenario)
	}
	if points[0].Scenario.Layout.GPU != layout.A100 || points[0].Scenario.Oversubscribe != 0 {
		t.Error("base point mutated")
	}
}

// TestSLOSchedAxes pins the new sweep axes: both SLO-scheduling knobs apply
// to the scenario's SLOSched, and out-of-range values are rejected.
func TestSLOSchedAxes(t *testing.T) {
	s, err := Parse([]byte(`{
		"name": "x",
		"layout": {"preset": "small"},
		"axes": [
			{"param": "slo.affinity_weight", "values": [0.25, 1]},
			{"param": "slo.admission_slack", "values": [0.5, 2]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.baseScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := s.expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expanded %d points, want 4", len(points))
	}
	got := points[1].Scenario.SLOSched
	if got.AffinityWeight != 0.25 || got.AdmissionSlack != 2 {
		t.Errorf("point 1 SLOSched = %+v, want {0.25 2}", got)
	}
	if base.SLOSched != (sim.SLOSched{}) {
		t.Error("base scenario mutated")
	}
	for _, bad := range []string{
		`{"name":"x","axes":[{"param":"slo.affinity_weight","values":[0]}]}`,
		`{"name":"x","axes":[{"param":"slo.affinity_weight","values":[1.5]}]}`,
		`{"name":"x","axes":[{"param":"slo.admission_slack","values":[-1]}]}`,
	} {
		s, err := Parse([]byte(bad))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Campaign(0); err == nil {
			t.Errorf("out-of-range axis accepted: %s", bad)
		}
	}
}

// TestPowerGovAxes pins the governor sweep axes: both controller knobs apply
// to the scenario's PowerGov, and out-of-range values are rejected.
func TestPowerGovAxes(t *testing.T) {
	s, err := Parse([]byte(`{
		"name": "x",
		"layout": {"preset": "small"},
		"axes": [
			{"param": "powergov.budget_frac", "values": [0.6, 0.9]},
			{"param": "powergov.gain", "values": [0.2, 0.5]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.baseScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := s.expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expanded %d points, want 4", len(points))
	}
	got := points[1].Scenario.PowerGov
	if got.BudgetFrac != 0.6 || got.Gain != 0.5 {
		t.Errorf("point 1 PowerGov = %+v, want {0.6 0.5}", got)
	}
	if base.PowerGov != (sim.PowerGov{}) {
		t.Error("base scenario mutated")
	}
	for _, bad := range []string{
		`{"name":"x","axes":[{"param":"powergov.budget_frac","values":[0]}]}`,
		`{"name":"x","axes":[{"param":"powergov.budget_frac","values":[1.5]}]}`,
		`{"name":"x","axes":[{"param":"powergov.gain","values":[-1]}]}`,
		`{"name":"x","axes":[{"param":"powergov.gain","values":[1.1]}]}`,
	} {
		s, err := Parse([]byte(bad))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Campaign(0); err == nil {
			t.Errorf("out-of-range axis accepted: %s", bad)
		}
	}
}

// TestAxesRejectWhatTheirFieldsReject checks that a sweep axis refuses, when
// the campaign expands, each value its typed spec field cannot hold: a
// fraction of an endpoint or of a seed, a negative seed and a negative start
// offset. Whole values still sweep.
func TestAxesRejectWhatTheirFieldsReject(t *testing.T) {
	for _, tc := range []struct{ axis, want string }{
		{`{"param":"workload.endpoints","values":[1.5,2.9]}`, "workload.endpoints 1.5 must be a whole number"},
		{`{"param":"seed","values":[7.9]}`, "seed 7.9 must be a whole number"},
		{`{"param":"seed","values":[-1]}`, "seed -1 must not be negative"},
		{`{"param":"start_offset","values":["13h","-5h"]}`, "start_offset -5h0m0s must not be negative"},
	} {
		s, err := Parse([]byte(`{"name":"x","layout":{"preset":"small"},"duration":"10m","axes":[` + tc.axis + `]}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Campaign(0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("axis %s: err = %v, want %q", tc.axis, err, tc.want)
		}
	}
	s, err := Parse([]byte(`{"name":"x","layout":{"preset":"small"},"duration":"10m","axes":[
		{"param":"workload.endpoints","values":[1,2]},{"param":"seed","values":[0,7]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Points[3].Scenario; got.Workload.Endpoints != 2 || got.Workload.Seed != 7 || got.Layout.Seed != 7 {
		t.Errorf("point 3 = %d endpoints, seeds %d/%d; want 2, 7/7", got.Workload.Endpoints, got.Workload.Seed, got.Layout.Seed)
	}
}

// TestParsePolicy pins the policy name surface.
func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]string{
		"baseline":        "Baseline",
		"tapas":           "TAPAS",
		"slo":             "SLO-Admit",
		"slo-edf":         "SLO-EDF",
		"powergov":        "PowerGov",
		"powergov-energy": "PowerGov-Energy",
		"place":           "Place",
		"place,config":    "Place+Config",
		"place, route":    "Place+Route",
	} {
		p, err := ParsePolicy(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if p.Name != want {
			t.Errorf("%q → %q, want %q", in, p.Name, want)
		}
		if p.New().Name() != want {
			t.Errorf("%q constructor names %q", in, p.New().Name())
		}
	}
	if _, err := ParsePolicy("place,teleport"); err == nil {
		t.Error("bad lever accepted")
	}
	// The spec's baseline is the Baseline system itself, not a TAPAS with
	// every lever off.
	p, err := ParsePolicy("baseline")
	if err != nil {
		t.Fatal(err)
	}
	pol := p.New()
	if _, ok := pol.(*core.Baseline); !ok {
		t.Errorf("baseline builds %T, want *core.Baseline", pol)
	}
}

// TestDefaultPoliciesAndMetrics checks the spec defaults.
func TestDefaultPoliciesAndMetrics(t *testing.T) {
	s, err := Parse([]byte(`{"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.policyNames(); len(got) != 2 || got[0] != "baseline" || got[1] != "tapas" {
		t.Errorf("default policies = %v", got)
	}
	if got := s.metricIDs(); len(got) != 2 || got[0] != "norm_max_temp" || got[1] != "norm_peak_power" {
		t.Errorf("default metrics = %v", got)
	}
}

// TestCampaignRejectsScenarioShorterThanOneTick checks that expansion
// refuses a scenario shorter than one tick, after scaling, so -validate and
// the daemon's submit reject it before any job runs. The small preset with
// no duration runs 20 minutes below scale 0.5, so a 30-minute tick is too
// long there but fits its paper-scale hour.
func TestCampaignRejectsScenarioShorterThanOneTick(t *testing.T) {
	cases := []struct {
		name  string
		json  string
		scale float64
	}{
		{"explicit duration", `{"name":"x","duration":"30m","tick":"1h"}`, 0},
		{"scaled small preset", `{"name":"x","layout":{"preset":"small"},"tick":"30m"}`, 0.1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.json))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Campaign(tc.scale); err == nil || !strings.Contains(err.Error(), "shorter than one tick") {
				t.Errorf("err = %v, want a shorter-than-one-tick error", err)
			}
		})
	}
	s, err := Parse([]byte(`{"name":"x","layout":{"preset":"small"},"tick":"30m"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Campaign(1); err != nil {
		t.Errorf("a 30m tick in the small preset's 1h: %v", err)
	}
}

// TestCampaignRefusesScaleOutsideUnit: scale only shrinks a preset toward
// quick runs, so Campaign refuses a non-finite, oversized or negative scale
// instead of letting it collapse the run to the presets' floors (a NaN or
// overflowing aisle count rounds to the 2-aisle floor, and NaN shortens the
// small preset to its 20-minute smoke window).
func TestCampaignRefusesScaleOutsideUnit(t *testing.T) {
	for _, preset := range []string{"large", "small"} {
		s, err := Parse([]byte(`{"name":"x","layout":{"preset":"` + preset + `"}}`))
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{math.NaN(), math.Inf(1), 1e300, 2, -1} {
			c, err := s.Campaign(scale)
			if err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
				t.Errorf("%s preset, scale %v: err = %v, want an outside-[0, 1] error", preset, scale, err)
				if err == nil {
					sc := c.Points[0].Scenario
					t.Logf("  expanded to %d aisles for %v", sc.Layout.Aisles, sc.Duration)
				}
			}
		}
		for _, scale := range []float64{0, 0.12, 1} {
			if _, err := s.Campaign(scale); err != nil {
				t.Errorf("%s preset, scale %v: %v", preset, scale, err)
			}
		}
	}
}
