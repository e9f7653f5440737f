package dht

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/paritytest"
	"repro/internal/wire"
)

// routingMsgTypes names every wire message type the routing layer
// declares. The frameparity analyzer holds this table and the constant
// block in sync: a constant missing here (or here but unregistered) is
// a CI failure.
var routingMsgTypes = map[string]uint8{
	"MsgPing":         MsgPing,
	"MsgNextHop":      MsgNextHop,
	"MsgGetState":     MsgGetState,
	"MsgNotify":       MsgNotify,
	"MsgGetFinger":    MsgGetFinger,
	"MsgSetSuccessor": MsgSetSuccessor,
}

// TestFrameParityRouting proves every routing message type has a live
// dispatcher handler, and that each handler survives hostile frames —
// truncated, empty, and garbage payloads must produce an error or a
// well-formed reply, never a panic (the wire package's "readers never
// panic" contract, end to end).
func TestFrameParityRouting(t *testing.T) {
	net := transport.NewMem()
	d := transport.NewDispatcher()
	ep := net.Endpoint("parity", d.Serve)
	NewNode(ids.HashString("parity"), ep, d, Options{})
	paritytest.Check(t, d, routingMsgTypes)
}

// The cost oracle: decoding or serving a body of n bytes allocates at
// most allocPerByte*n + allocSlack heap bytes. A decoded Remote takes 24
// bytes for at least 9 on the wire, plus its address's bytes, and a
// served answer is bounded by the node's own tables.
const (
	allocPerByte = 8
	allocSlack   = 64 << 10
)

// heapBytes returns the heap bytes allocated while fn runs.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRemotesRejectsOversizedCount drives a GetState answer whose
// successor count the body cannot hold: a count of 65,536 in three bytes,
// one just past 65,536, and two claimed with one present. Each must be a
// corrupt answer, never an empty successor list, and decoding it must
// not reserve memory for the entries the count claims.
func TestDecodeRemotesRejectsOversizedCount(t *testing.T) {
	one := wire.NewWriter(32)
	encodeRemote(one, Remote{ID: 7, Addr: "127.0.0.1:7001"})
	for name, count := range map[string][]byte{
		"65536":      {0x80, 0x80, 0x04},
		"65537":      {0x81, 0x80, 0x04},
		"two of one": append([]byte{0x02}, one.Bytes()...),
	} {
		t.Run(name, func(t *testing.T) {
			answer := append(append([]byte(nil), one.Bytes()...), count...)
			net := transport.NewMem()
			d := transport.NewDispatcher()
			d.Handle(MsgGetState, func(context.Context, transport.Addr, uint8, []byte) (uint8, []byte, error) {
				return MsgGetState, answer, nil
			})
			net.Endpoint("liar", d.Serve)
			n := newTestNode(net, 1, Options{})
			var succs []Remote
			var err error
			alloc := heapBytes(func() { _, succs, err = n.rpcGetState(context.Background(), "liar") })
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("answer % x: err = %v with %d successors, want wire.ErrCorrupt", answer, err, len(succs))
			}
			if bound := uint64(allocPerByte*len(answer) + allocSlack); alloc > bound {
				t.Errorf("answer of %d bytes allocated %d heap bytes, want at most %d", len(answer), alloc, bound)
			}
		})
	}
}

// FuzzDHTFrames drives the six routing handlers through the dispatcher
// and the client's answer decoders — NextHop, GetState, and the one
// Remote that Ping and GetFinger answer — with the same arbitrary body.
// Three oracles hold for every call: no panic, an error is only ever
// wire.ErrCorrupt, and the heap bytes it allocates stay within the cost
// bound. The node's pointers are reinstalled before every input, so
// Notify and SetSuccessor bodies cannot carry state from one input to
// the next.
func FuzzDHTFrames(f *testing.F) {
	net := transport.NewMem()
	d := transport.NewDispatcher()
	self := Remote{ID: 1 << 62, Addr: "10.0.0.1:7001"}
	node := NewNode(self.ID, net.Endpoint(string(self.Addr), d.Serve), d, Options{})
	pred := Remote{ID: 1 << 60, Addr: "10.0.0.9:7001"}
	succs := []Remote{{ID: 1 << 63, Addr: "10.0.0.2:7001"}, {ID: 3 << 62, Addr: "10.0.0.3:7001"}}
	reset := func() { node.InstallRing(pred, succs, succs) }
	serve := func(typ uint8, body []byte) ([]byte, error) {
		_, resp, err := d.Serve(context.Background(), "fuzzer", typ, body)
		return resp, err
	}

	// Golden requests, and the answers the node gives them.
	reset()
	key := wire.NewWriter(8)
	key.Uint64(uint64(3 << 62))
	level := wire.NewWriter(1)
	level.Uvarint(1)
	cand := wire.NewWriter(32)
	encodeRemote(cand, Remote{ID: 1 << 61, Addr: "10.0.0.4:7001"})
	for _, req := range []struct {
		typ  uint8
		body []byte
	}{{MsgPing, nil}, {MsgNextHop, key.Bytes()}, {MsgGetState, nil}, {MsgGetFinger, level.Bytes()}} {
		f.Add(req.body)
		resp, err := serve(req.typ, req.body)
		if err != nil {
			f.Fatalf("golden 0x%02x request: %v", req.typ, err)
		}
		f.Add(resp)
	}
	f.Add(cand.Bytes())
	for _, body := range paritytest.HostileBodies() {
		f.Add(body)
	}
	f.Add([]byte{0x80, 0x80, 0x04})

	f.Fuzz(func(t *testing.T, body []byte) {
		bound := uint64(allocPerByte*len(body) + allocSlack)
		check := func(what string, run func() error) {
			t.Helper()
			var err error
			if alloc := heapBytes(func() { err = run() }); alloc > bound {
				t.Fatalf("%s: %d-byte body allocated %d heap bytes, want at most %d", what, len(body), alloc, bound)
			}
			if err != nil && !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%s: err = %v, want nil or wire.ErrCorrupt", what, err)
			}
		}
		reset()
		for typ := MsgPing; typ <= MsgSetSuccessor; typ++ {
			check(fmt.Sprintf("0x%02x handler", typ), func() error { _, err := serve(typ, body); return err })
		}
		check("NextHop answer", func() error { _, _, err := decodeNextHop(body); return err })
		check("GetState answer", func() error { _, _, err := decodeState(body); return err })
		check("Remote answer", func() error { _, err := decodeRemoteAnswer(body); return err })
	})
}
