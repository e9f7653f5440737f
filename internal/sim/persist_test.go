package sim

import (
	"testing"
)

// TestRunE12SmallShape pins the persistence experiment's claims: a
// restarted peer backed by the durable engine recovers its slice with
// at least 10x fewer transferred entries than a cold rejoin, and
// retrieval quality is unharmed in both arms (R=3 replicas covered the
// downtime window).
func TestRunE12SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test skipped in -short mode")
	}
	tbl, err := RunE12(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(tbl.String())
	if len(rows) != 2 {
		t.Fatalf("E12 rows = %d, want 2\n%s", len(rows), tbl)
	}
	var cold, delta []string
	for _, r := range rows {
		switch r[0] {
		case "memory (cold rejoin)":
			cold = r
		case "persistent (delta rejoin)":
			delta = r
		}
	}
	if cold == nil || delta == nil {
		t.Fatalf("missing arms\n%s", tbl)
	}

	coldKeys, deltaKeys := atoi(t, cold[1]), atoi(t, delta[1])
	if coldKeys == 0 {
		t.Fatalf("cold rejoin transferred no keys — the fixture never migrated anything\n%s", tbl)
	}
	if deltaKeys*10 > coldKeys {
		t.Errorf("delta rejoin transferred %d keys vs cold %d — less than the 10x reduction\n%s",
			deltaKeys, coldKeys, tbl)
	}
	if m := atoi(t, delta[2]); m == 0 {
		t.Errorf("delta arm walked no manifest pairs — the delta path never ran\n%s", tbl)
	}

	for _, arm := range [][]string{cold, delta} {
		if s := atof(t, arm[3]); s < 0.99 {
			t.Errorf("%s success = %.3f, want >= 0.99\n%s", arm[0], s, tbl)
		}
		if rec := atof(t, arm[4]); rec < 0.99 {
			t.Errorf("%s recall = %.3f, want >= 0.99\n%s", arm[0], rec, tbl)
		}
	}
}

// BenchmarkRejoinTransfer reports the restart experiment's transfer
// counts as benchmark metrics: one sub-benchmark per arm, keys/rejoin
// being the full-entry transfers the restarted peers paid.
func BenchmarkRejoinTransfer(b *testing.B) {
	for _, arm := range []struct {
		name       string
		persistent bool
	}{
		{"cold", false},
		{"delta", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			numDocs, peers, kill := 600, 10, 2
			hdkCfg := hdkConfigFor(numDocs)
			coll := corpusFor(numDocs, 131)
			for i := 0; i < b.N; i++ {
				pulled, manifest, _, _, err := e12Trial(coll, nil, peers, kill, hdkCfg, arm.persistent)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(pulled), "keys/rejoin")
				b.ReportMetric(float64(manifest), "manifest/rejoin")
			}
		})
	}
}
