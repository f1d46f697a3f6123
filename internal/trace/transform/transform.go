// Package transform implements composable, deterministic replay-time
// transforms over recorded workload traces. The paper evaluates TAPAS by
// rescaling and reshaping production Azure traces — "the same trace, 2x
// hotter", time-compressed, or skewed toward particular endpoints — rather
// than regenerating synthetic load; a transform Chain gives the reproduction
// the same lever over a pinned trace.Workload without touching the recorded
// artifact.
//
// Every Step is a pure Workload -> Workload function: it never mutates its
// input, it is deterministic (perturbations are seeded hashes, never global
// randomness), and its output upholds the structural invariants replay
// relies on (dense IDs, sorted arrivals, valid endpoint references —
// trace.Workload.Validate). Chains have a canonical JSON encoding
//
//	[{"op": "time_warp", "factor": 0.5},
//	 {"op": "demand_scale", "factor": 2},
//	 {"op": "endpoint_filter", "keep": [0, 2]},
//	 {"op": "jitter", "sigma": "90s", "seed": 7},
//	 {"op": "splice", "trace": "other.trace.csv", "offset": "24h"}]
//
// used verbatim by the workload.transforms scenario-spec field and the
// tapas-trace -transform flag, so a transformed trace is itself a pinnable
// artifact: applying a chain in-spec and replaying a chain-re-exported CSV
// produce byte-identical reports.
package transform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"github.com/tapas-sim/tapas/internal/trace"
)

// maxChainSteps bounds a chain; anything longer is a malformed or
// adversarial input, not an experiment.
const maxChainSteps = 32

// maxVMs caps the VM population a transform may produce, so a stacked chain
// of replicating demand_scale steps fails loudly instead of exhausting
// memory.
const maxVMs = 1 << 20

// Step is one pure, deterministic Workload -> Workload transform.
type Step interface {
	// Op returns the step's operation name, the "op" field of its JSON form.
	Op() string
	// Validate checks the step's parameters without a workload.
	Validate() error
	// Apply transforms w without mutating it.
	Apply(w *trace.Workload) (*trace.Workload, error)
	// Clone returns a deep copy, so sweeps can vary one step per grid point
	// without aliasing the spec's chain.
	Clone() Step
}

// Chain is an ordered list of transform steps applied left to right.
type Chain []Step

// Parse decodes and validates a chain from its canonical JSON form. Unknown
// ops and unknown per-op fields are rejected, so typos in committed chains
// fail loudly instead of silently no-op'ing.
func Parse(data []byte) (Chain, error) {
	var raws []json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&raws); err != nil {
		return nil, fmt.Errorf("transform: parsing chain: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("transform: parsing chain: trailing content after the chain array")
	}
	if len(raws) > maxChainSteps {
		return nil, fmt.Errorf("transform: chain has %d steps, more than the %d-step limit", len(raws), maxChainSteps)
	}
	c := make(Chain, 0, len(raws))
	for i, raw := range raws {
		s, err := parseStep(raw)
		if err != nil {
			return nil, fmt.Errorf("transform: step %d: %w", i+1, err)
		}
		c = append(c, s)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseStep(raw json.RawMessage) (Step, error) {
	// Split the "op" discriminator from the per-op parameters, so the
	// parameter decode below can reject unknown fields without tripping on
	// "op" itself.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, fmt.Errorf("decoding step: %w", err)
	}
	var op string
	if opRaw, ok := fields["op"]; ok {
		if err := json.Unmarshal(opRaw, &op); err != nil {
			return nil, fmt.Errorf("decoding step op: %w", err)
		}
		delete(fields, "op")
	}
	var s Step
	switch op {
	case "time_warp":
		s = &TimeWarp{}
	case "demand_scale":
		s = &DemandScale{}
	case "endpoint_filter":
		s = &EndpointFilter{}
	case "jitter":
		s = &Jitter{}
	case "splice":
		s = &Splice{}
	case "":
		return nil, fmt.Errorf("step has no \"op\" field")
	default:
		return nil, fmt.Errorf("unknown op %q (known: time_warp, demand_scale, endpoint_filter, jitter, splice)", op)
	}
	params, err := json.Marshal(fields)
	if err != nil {
		return nil, fmt.Errorf("op %s: %w", op, err)
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("op %s: %w", op, err)
	}
	return s, nil
}

// UnmarshalJSON implements json.Unmarshaler, so a Chain can sit directly in
// a larger JSON document (the workload.transforms spec field).
func (c *Chain) UnmarshalJSON(data []byte) error {
	parsed, err := Parse(data)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// MarshalJSON emits the canonical encoding Parse accepts.
func (c Chain) MarshalJSON() ([]byte, error) {
	if c == nil {
		return []byte("[]"), nil
	}
	out := make([]any, len(c))
	for i, s := range c {
		out[i] = stepJSON{Op: s.Op(), Step: s}
	}
	return json.Marshal(out)
}

// stepJSON wraps a step so the canonical encoding always leads with "op".
type stepJSON struct {
	Op   string
	Step Step
}

func (s stepJSON) MarshalJSON() ([]byte, error) {
	body, err := json.Marshal(s.Step)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"op":%q`, s.Op)
	if !bytes.Equal(body, []byte("{}")) {
		buf.WriteByte(',')
		buf.Write(body[1 : len(body)-1])
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// String returns the canonical JSON of the chain (used for display and for
// content keys; equal strings mean equal chains).
func (c Chain) String() string {
	b, err := json.Marshal(c)
	if err != nil {
		// Steps marshal from plain fields; an error here is a programming
		// bug, not an input condition.
		return fmt.Sprintf("!transform-chain-marshal: %v", err)
	}
	return string(b)
}

// Validate checks every step's parameters.
func (c Chain) Validate() error {
	if len(c) > maxChainSteps {
		return fmt.Errorf("transform: chain has %d steps, more than the %d-step limit", len(c), maxChainSteps)
	}
	for i, s := range c {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("transform: step %d (%s): %w", i+1, s.Op(), err)
		}
	}
	return nil
}

// Clone deep-copies the chain, so a sweep can vary one step's parameters per
// grid point without mutating the spec's parsed chain.
func (c Chain) Clone() Chain {
	if c == nil {
		return nil
	}
	out := make(Chain, len(c))
	for i, s := range c {
		out[i] = s.Clone()
	}
	return out
}

// Load resolves every splice step's trace path against dir (when relative)
// and loads the referenced workload CSVs. Chains without splice steps need
// no Load. Idempotent: already-loaded steps are kept.
func (c Chain) Load(dir string) error {
	for i, s := range c {
		sp, ok := s.(*Splice)
		if !ok {
			continue
		}
		if err := sp.load(dir); err != nil {
			return fmt.Errorf("transform: step %d (splice): %w", i+1, err)
		}
	}
	return nil
}

// Apply runs the chain over w left to right and validates the final
// workload. The input is never mutated; an empty chain returns it unchanged.
func (c Chain) Apply(w *trace.Workload) (*trace.Workload, error) {
	if len(c) == 0 {
		return w, nil
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out := w
	for i, s := range c {
		next, err := s.Apply(out)
		if err != nil {
			return nil, fmt.Errorf("transform: step %d (%s): %w", i+1, s.Op(), err)
		}
		if len(next.VMs) > maxVMs {
			return nil, fmt.Errorf("transform: step %d (%s) produced %d VMs, more than the %d cap", i+1, s.Op(), len(next.VMs), maxVMs)
		}
		out = next
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("transform: chain output invalid: %w", err)
	}
	return out, nil
}

// Dur is a time.Duration that round-trips through Go duration strings
// ("90s", "24h") in chain JSON.
type Dur time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"90s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("invalid duration %q: %w", s, err)
	}
	*d = Dur(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Transforms draw deterministic noise from trace.HashUnit — the same
// splitmix64 construction the trace generator uses — so they never touch
// global randomness and share one definition with the generator.
