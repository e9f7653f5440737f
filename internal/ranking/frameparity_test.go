package ranking

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dht"
	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/paritytest"
	"repro/internal/wire"
)

// statsMsgTypes names the global-statistics wire message types. The
// frameparity analyzer keeps this table and the constant block in
// globalstats.go in sync.
var statsMsgTypes = map[string]uint8{
	"MsgStatsUpdate": MsgStatsUpdate,
	"MsgStatsQuery":  MsgStatsQuery,
}

// TestFrameParityStats proves every statistics message type has a live
// dispatcher handler that survives hostile frames without panicking,
// serves a well-formed frame in both modes (a lone node owns every key)
// and refuses an unknown mode as corrupt.
func TestFrameParityStats(t *testing.T) {
	net := transport.NewMem()
	d := transport.NewDispatcher()
	ep := net.Endpoint("parity", d.Serve)
	rng := rand.New(rand.NewSource(7))
	node := dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
	dht.BuildOracleTables([]*dht.Node{node})
	g := NewGlobalStats(globalindex.New(node, d), d)
	paritytest.Check(t, d, statsMsgTypes)

	ctx := context.Background()
	for _, mode := range []byte{modeOwner, modeAny} {
		if _, _, err := d.Serve(ctx, "peer", MsgStatsUpdate, statsFrame(mode, true, "t", "")); err != nil {
			t.Fatalf("mode %d update: %v", mode, err)
		}
		_, resp, err := d.Serve(ctx, "peer", MsgStatsQuery, statsFrame(mode, false, "t", ""))
		if err != nil {
			t.Fatalf("mode %d query: %v", mode, err)
		}
		r := wire.NewReader(resp)
		n, df, docs, length := r.Uvarint(), r.Varint(), r.Varint(), r.Varint()
		want := int64(mode) + 1
		if r.Err() != nil || n != 2 || df != want || docs != want || length != 5*want {
			t.Fatalf("mode %d answer (n=%d, df=%d, N=%d, len=%d, %v), want (2, %d, %d, %d)", mode, n, df, docs, length, r.Err(), want, want, 5*want)
		}
	}
	for _, msg := range []uint8{MsgStatsUpdate, MsgStatsQuery} {
		if _, _, err := d.Serve(ctx, "peer", msg, statsFrame(modeAny+1, msg == MsgStatsUpdate, "t")); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("0x%02x with an unknown mode: got %v, want ErrCorrupt", msg, err)
		}
	}
	if n, docs, _ := g.LocalCounters(); n != 1 || docs != 2 {
		t.Errorf("unknown-mode frames applied: %d terms, N=%d", n, docs)
	}
}
