package core

import (
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/trace"
)

// TestAllocatorRowTemplateFloor pins the runtime template reader: once a
// row's rolling power telemetry spans a full week, the allocator's validator
// floors its projected peak with the hour-of-week template peak
// (power.BuildTemplate over State.RowPowerHist), closing rows whose
// observed draw already crowds the envelope.
func TestAllocatorRowTemplateFloor(t *testing.T) {
	st, prof := newComponentState(t)
	alloc := &allocator{prof: prof}
	// A week of telemetry: row 0 historically draws right at its provisioned
	// envelope, row 1 sits far below it.
	week := int(7 * 24 * time.Hour / cluster.HistoryRes)
	hot := st.DC.Rows[0].ProvPowerW
	for i := 0; i < week; i++ {
		st.RowPowerHist[0] = append(st.RowPowerHist[0], hot)
		st.RowPowerHist[1] = append(st.RowPowerHist[1], 1000)
	}
	st.Now = time.Minute
	vm := findVM(st, trace.IaaS)
	srv, ok := alloc.place(st, vm)
	if !ok {
		t.Fatal("placement failed with a whole row of capacity available")
	}
	if alloc.rowTplPeakW[0] < hot*0.99 {
		t.Errorf("row 0 template peak = %.0f W, want ≈ %.0f from a week of history", alloc.rowTplPeakW[0], hot)
	}
	if row := st.DC.Servers[srv].Row; row != 1 {
		t.Errorf("VM placed in row %d; row 0's template history shows it at its power envelope", row)
	}
}

// TestAllocatorRowTemplateNeedsWeek verifies templates stay inert with under
// a week of history: the validator then relies on model projections alone,
// preserving pre-template behavior.
func TestAllocatorRowTemplateNeedsWeek(t *testing.T) {
	st, prof := newComponentState(t)
	alloc := &allocator{prof: prof}
	halfWeek := int(7 * 24 * time.Hour / cluster.HistoryRes / 2)
	for i := 0; i < halfWeek; i++ {
		st.RowPowerHist[0] = append(st.RowPowerHist[0], st.DC.Rows[0].ProvPowerW*2)
		st.RowPowerHist[1] = append(st.RowPowerHist[1], st.DC.Rows[1].ProvPowerW*2)
	}
	st.Now = time.Minute
	if _, ok := alloc.place(st, findVM(st, trace.IaaS)); !ok {
		t.Fatal("placement failed")
	}
	for row, peak := range alloc.rowTplPeakW {
		if peak != -1 {
			t.Errorf("row %d template peak = %v, want -1 (unavailable) with half a week of history", row, peak)
		}
	}
}
