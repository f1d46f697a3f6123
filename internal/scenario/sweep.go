package scenario

import (
	"fmt"

	"github.com/tapas-sim/tapas/internal/sim"
)

// Point is one cell of the campaign grid: the scenario with every axis value
// applied, plus the per-axis display labels.
type Point struct {
	Labels   []string
	Values   []AxisValue
	Scenario sim.Scenario
}

// expand builds the cartesian grid of the spec's axes over the base
// scenario. A spec without axes yields exactly one point. Points are ordered
// with the last axis varying fastest (row-major in spec axis order).
func (s *Spec) expand(base sim.Scenario) ([]Point, error) {
	points := []Point{{Scenario: base}}
	for _, ax := range s.Axes {
		next := make([]Point, 0, len(points)*len(ax.Values))
		axis := params[ax.Param]
		for _, p := range points {
			for vi, v := range ax.Values {
				label := v.Label()
				if len(ax.Labels) > 0 {
					label = ax.Labels[vi]
				}
				np := Point{
					Labels:   append(append([]string(nil), p.Labels...), label),
					Values:   append(append([]AxisValue(nil), p.Values...), v),
					Scenario: p.Scenario,
				}
				// Failure schedules are shared slices on the copied
				// scenario; axes never mutate them, so sharing is safe.
				if err := axis.apply(&np.Scenario, ax.Param, v); err != nil {
					return nil, fmt.Errorf("scenario: spec %q: axis %q: %w", s.Name, ax.Param, err)
				}
				next = append(next, np)
			}
		}
		points = next
	}
	return points, nil
}
