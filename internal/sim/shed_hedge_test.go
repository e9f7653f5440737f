package sim

import (
	"strings"
	"testing"
)

// TestRunE11SmallShape pins experiment E11's claims on the small shape:
//
//   - with admission control on, the slow peer sheds doomed requests
//     before the work (sheds > 0) and executes strictly fewer
//     expired-budget requests than the PR 3 style run without admission
//     (fewer wasted RPCs);
//   - hedged, load-aware replica reads keep the slow copy out of the
//     answer: it wins at most a quarter as many reads as under the
//     unhedged hash spread. (The p99 rows are information only — the p99
//     of 60 wall-clock samples is their maximum, which one scheduler
//     hiccup moves.)
func TestRunE11SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test skipped in -short mode")
	}
	tbl, err := RunE11(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(tbl.String())
	if len(rows) != 8 {
		t.Fatalf("E11 rows = %d, want 8\n%s", len(rows), tbl)
	}
	cellHas := func(prefix, suffix string) int {
		t.Helper()
		for _, r := range rows {
			if strings.HasPrefix(r[0], prefix) && strings.HasSuffix(r[0], suffix) {
				return atoi(t, r[1])
			}
		}
		t.Fatalf("row %q…%q not found\n%s", prefix, suffix, tbl)
		return 0
	}
	cell := func(prefix string) int {
		t.Helper()
		for _, r := range rows {
			if strings.HasPrefix(r[0], prefix) {
				return atoi(t, r[1])
			}
		}
		t.Fatalf("row %q not found\n%s", prefix, tbl)
		return 0
	}
	shedsOff := cell("sheds, admission off")
	doomedOff := cell("doomed requests executed, admission off")
	shedsOn := cell("sheds, admission on")
	doomedOn := cell("doomed requests executed, admission on")
	slowUnhedged := cellHas("reads won by the slow copy", "any-replica unhedged")
	slowHedged := cellHas("reads won by the slow copy", "any-replica hedged")

	if shedsOff != 0 {
		t.Errorf("admission-off run shed %d requests; shedding must be opt-in\n%s", shedsOff, tbl)
	}
	if doomedOff == 0 {
		t.Fatalf("PR3 arm executed no doomed requests; the slow peer was never exercised\n%s", tbl)
	}
	if shedsOn == 0 {
		t.Errorf("admission arm never shed — deadline budgets are not acted on\n%s", tbl)
	}
	if doomedOn >= doomedOff {
		t.Errorf("wasted work did not drop: %d doomed executions with admission vs %d without\n%s",
			doomedOn, doomedOff, tbl)
	}
	if slowUnhedged == 0 {
		t.Fatalf("the slow replica never landed in the unhedged read path\n%s", tbl)
	}
	if slowHedged*4 > slowUnhedged {
		t.Errorf("the slow copy won %d hedged reads, more than a quarter of the %d unhedged ones\n%s",
			slowHedged, slowUnhedged, tbl)
	}
}
