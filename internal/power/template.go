package power

import (
	"fmt"

	"github.com/tapas-sim/tapas/internal/regress"
)

// HoursPerWeek is the length of an hour-of-week template.
const HoursPerWeek = 7 * 24

// Template is an hour-of-week power template: the chosen percentile of the
// previous week's draw for each of the 168 hours. TAPAS uses templates to
// predict row- and VM-level power for placement and routing (Fig. 14,
// following SmartOClock's template approach).
type Template struct {
	Percentile float64
	HourlyW    [HoursPerWeek]float64
}

// BuildTemplate constructs a template from a power history sampled
// uniformly, oldest sample first (such as a row of cluster.State's
// RowPowerHist). samplesPerHour tells how many consecutive samples form one
// hour; history longer than a week folds onto the hour-of-week axis.
func BuildTemplate(history []float64, samplesPerHour int, percentile float64) (Template, error) {
	if samplesPerHour <= 0 {
		return Template{}, fmt.Errorf("power: samplesPerHour must be positive, got %d", samplesPerHour)
	}
	if len(history) < samplesPerHour*HoursPerWeek {
		return Template{}, fmt.Errorf("power: need at least one week of history (%d samples), got %d",
			samplesPerHour*HoursPerWeek, len(history))
	}
	// Each sample contributes to its own hour bucket and the two adjacent
	// ones. With only one week of history a bucket would otherwise hold a
	// handful of samples, making high percentiles no better than the sample
	// max; the ±1 h window both enlarges the bucket and folds in the
	// diurnal slope, which is what makes P99 templates conservative.
	//
	// Bucket sizes are known exactly up front (every sample lands in three
	// buckets), so all 168 buckets are carved from one flat backing array —
	// one allocation instead of ~1300 append growths per template, which
	// matters both for the allocator's row templates and the template-heavy
	// experiments (Fig. 14).
	n := len(history)
	var counts [HoursPerWeek]int
	for i := 0; i < n; i++ {
		hour := (i / samplesPerHour) % HoursPerWeek
		for _, h := range [3]int{hour - 1, hour, hour + 1} {
			counts[(h+HoursPerWeek)%HoursPerWeek]++
		}
	}
	flat := make([]float64, 0, 3*n)
	var buckets [HoursPerWeek][]float64
	off := 0
	for h, c := range counts {
		buckets[h] = flat[off : off : off+c]
		off += c
	}
	for i, v := range history {
		hour := (i / samplesPerHour) % HoursPerWeek
		for _, h := range [3]int{hour - 1, hour, hour + 1} {
			b := (h + HoursPerWeek) % HoursPerWeek
			buckets[b] = append(buckets[b], v)
		}
	}
	t := Template{Percentile: percentile}
	for h := range buckets {
		// The buckets are scratch, so the percentile may sort them in
		// place instead of copying each one.
		t.HourlyW[h] = regress.PercentileInPlace(buckets[h], percentile)
	}
	return t, nil
}

// Predict returns the template's power estimate for an hour-of-week index
// (wraps modulo one week).
func (t Template) Predict(hourOfWeek int) float64 {
	h := hourOfWeek % HoursPerWeek
	if h < 0 {
		h += HoursPerWeek
	}
	return t.HourlyW[h]
}

// Peak returns the maximum hourly value in the template; placement uses the
// template peak as the predicted peak demand of a row or VM.
func (t Template) Peak() float64 {
	peak := t.HourlyW[0]
	for _, v := range t.HourlyW[1:] {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// PredictionErrors evaluates a template against a later week of actuals and
// returns the signed percentage error per sample ((pred−actual)/actual·100).
// Positive = overprediction. This generates the CDFs of Fig. 14.
func (t Template) PredictionErrors(actuals []float64, samplesPerHour int) []float64 {
	errs := make([]float64, 0, len(actuals))
	for i, a := range actuals {
		if a <= 0 {
			continue
		}
		hour := (i / samplesPerHour) % HoursPerWeek
		errs = append(errs, (t.HourlyW[hour]-a)/a*100)
	}
	return errs
}
