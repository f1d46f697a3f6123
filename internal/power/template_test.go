package power

import (
	"math"
	"math/rand/v2"
	"testing"
)

// diurnalWeek synthesizes n weeks of hourly power with a diurnal sine and
// noise, samplesPerHour samples per hour.
func diurnalWeek(weeks, samplesPerHour int, rng *rand.Rand) []float64 {
	n := weeks * HoursPerWeek * samplesPerHour
	out := make([]float64, n)
	for i := range out {
		hour := float64(i/samplesPerHour) + float64(i%samplesPerHour)/float64(samplesPerHour)
		day := hour / 24
		base := 1000 + 400*math.Sin(2*math.Pi*(day-0.3))
		out[i] = base + rng.NormFloat64()*30
	}
	return out
}

func TestBuildTemplateRequiresWeek(t *testing.T) {
	if _, err := BuildTemplate(make([]float64, 100), 6, 99); err == nil {
		t.Error("expected error for short history")
	}
	if _, err := BuildTemplate(make([]float64, HoursPerWeek*6), 0, 99); err == nil {
		t.Error("expected error for zero samplesPerHour")
	}
}

func TestTemplatePredictionAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	history := diurnalWeek(2, 6, rng)
	week1 := history[:len(history)/2]
	week2 := history[len(history)/2:]
	tpl, err := BuildTemplate(week1, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 14a: row-based P50 prediction should be within 10% for the vast
	// majority of hours.
	errs := tpl.PredictionErrors(week2, 6)
	within := 0
	for _, e := range errs {
		if math.Abs(e) <= 10 {
			within++
		}
	}
	if frac := float64(within) / float64(len(errs)); frac < 0.9 {
		t.Errorf("only %.0f%% of predictions within 10%%, want > 90%%", frac*100)
	}
}

func TestTemplateP99RarelyUnderpredicts(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	history := diurnalWeek(2, 6, rng)
	week1 := history[:len(history)/2]
	week2 := history[len(history)/2:]
	tpl, err := BuildTemplate(week1, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	errs := tpl.PredictionErrors(week2, 6)
	under := 0
	for _, e := range errs {
		if e < 0 {
			under++
		}
	}
	// Fig. 14a: conservative P99 templates underpredict < 4% of row-hours.
	if frac := float64(under) / float64(len(errs)); frac > 0.04 {
		t.Errorf("P99 template underpredicts %.1f%% of samples, want < 4%%", frac*100)
	}
}

func TestTemplatePredictWraps(t *testing.T) {
	var tpl Template
	for h := range tpl.HourlyW {
		tpl.HourlyW[h] = float64(h)
	}
	if tpl.Predict(0) != tpl.Predict(HoursPerWeek) {
		t.Error("Predict must wrap modulo one week")
	}
	if tpl.Predict(-1) != tpl.HourlyW[HoursPerWeek-1] {
		t.Error("Predict must handle negative hours")
	}
}

func TestTemplatePeak(t *testing.T) {
	var tpl Template
	tpl.HourlyW[37] = 123
	if tpl.Peak() != 123 {
		t.Errorf("Peak = %v, want 123", tpl.Peak())
	}
}

func TestPredictionErrorsSkipsZeroActuals(t *testing.T) {
	var tpl Template
	errs := tpl.PredictionErrors([]float64{0, 0, 0}, 1)
	if len(errs) != 0 {
		t.Errorf("errors on zero actuals = %v, want empty", errs)
	}
}

func TestTemplatePercentileOrdering(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	history := diurnalWeek(1, 6, rng)
	t50, err := BuildTemplate(history, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	t99, err := BuildTemplate(history, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < HoursPerWeek; h++ {
		if t99.HourlyW[h] < t50.HourlyW[h] {
			t.Fatalf("hour %d: P99 %v below P50 %v", h, t99.HourlyW[h], t50.HourlyW[h])
		}
	}
}
