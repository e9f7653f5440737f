package sim

import (
	"testing"
)

// TestRunE13SmallShape pins the streamed top-k experiment's claims: on a
// zipf(1.0) collection a bounded first chunk plus the threshold loop
// moves at least 5x fewer retrieval bytes per query than whole-list
// opens on the same read frame (re-measured on the one frame: 7.6x HDK,
// 8.0x QDI warm), returns the identical top-10 result set for every
// query, and actually exercises the early-termination machinery.
func TestRunE13SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test skipped in -short mode")
	}
	tbl, err := RunE13(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(tbl.String())
	if len(rows) != 2 {
		t.Fatalf("E13 rows = %d, want 2 (HDK, QDI warm)\n%s", len(rows), tbl)
	}
	for _, r := range rows {
		full, streamed := atoi(t, r[1]), atoi(t, r[2])
		if full == 0 || streamed == 0 {
			t.Fatalf("%s arm moved no bytes\n%s", r[0], tbl)
		}
		if ratio := atof(t, r[3]); ratio < 5 {
			t.Errorf("%s streamed ratio = %.2fx, want >= 5x\n%s", r[0], ratio, tbl)
		}
		if ident := atof(t, r[4]); ident < 1.0 {
			t.Errorf("%s identical@10 = %.3f, want 1.0\n%s", r[0], ident, tbl)
		}
		if early := atof(t, r[6]); early <= 0 {
			t.Errorf("%s early terminations never fired\n%s", r[0], tbl)
		}
	}
}
