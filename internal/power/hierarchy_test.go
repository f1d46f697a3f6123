package power

import (
	"testing"

	"github.com/tapas-sim/tapas/internal/layout"
)

func TestBudgetRowLimits(t *testing.T) {
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBudget(dc)
	for i, row := range dc.Rows {
		if b.RowLimitW(i) != row.ProvPowerW {
			t.Errorf("row %d limit = %v, want %v", i, b.RowLimitW(i), row.ProvPowerW)
		}
	}
}

func TestBudgetEmergency(t *testing.T) {
	dc, _ := layout.New(layout.SmallConfig())
	b := NewBudget(dc)
	normal := b.RowLimitW(0)
	b.SetEmergency(0.75)
	if got := b.RowLimitW(0); got != normal*0.75 {
		t.Errorf("emergency limit = %v, want %v (UPS failure ⇒ 75%%)", got, normal*0.75)
	}
	if b.Multiplier() != 0.75 {
		t.Errorf("multiplier = %v, want 0.75", b.Multiplier())
	}
	b.SetEmergency(1)
	if b.RowLimitW(0) != normal {
		t.Error("clearing emergency must restore limits")
	}
	// Invalid multipliers reset to healthy.
	b.SetEmergency(-2)
	if b.Multiplier() != 1 {
		t.Error("invalid multiplier must reset to 1")
	}
	b.SetEmergency(1.5)
	if b.Multiplier() != 1 {
		t.Error("multiplier above 1 must reset to 1")
	}
}

func TestUniformCapFactor(t *testing.T) {
	if got := UniformCapFactor(900, 1000); got != 1 {
		t.Errorf("under-limit cap = %v, want 1", got)
	}
	if got := UniformCapFactor(2000, 1000); got != 0.5 {
		t.Errorf("2× overdraw cap = %v, want 0.5", got)
	}
	if got := UniformCapFactor(0, 1000); got != 1 {
		t.Errorf("zero-draw cap = %v, want 1", got)
	}
	if got := UniformCapFactor(1000, -5); got != 0 {
		t.Errorf("negative-limit cap = %v, want 0", got)
	}
}
