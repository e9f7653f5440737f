package globalindex

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/paritytest"
)

// indexMsgTypes names every wire message type the global index layer
// declares — the batch frames every keyed operation travels in (append,
// frequency probe, the one read), the soft-replica announce, and the
// replication/anti-entropy protocol. The frameparity analyzer keeps this
// table and the constant blocks in sync.
var indexMsgTypes = map[string]uint8{
	"MsgMultiAppend":   MsgMultiAppend,
	"MsgMultiKeyInfo":  MsgMultiKeyInfo,
	"MsgRead":          MsgRead,
	"MsgReplSync":      MsgReplSync,
	"MsgRangeManifest": MsgRangeManifest,
	"MsgFetchEntries":  MsgFetchEntries,
	"MsgSoftAnnounce":  MsgSoftAnnounce,
}

// pinnedMsgBytes fixes the surviving frames' wire bytes: the benchmark
// books traffic by numeric frame type (publish 0x17/0x19 — write-through
// replays included, since they are 0x17 in any mode — and replication
// 0x24–0x26; reads in the 0x1C–0x1E/0x27 block, of which 0x1C is the one
// still sent), so renumbering a frame would silently move its bytes to
// another account.
var pinnedMsgBytes = map[string]uint8{
	"MsgMultiAppend":   0x17,
	"MsgMultiKeyInfo":  0x19,
	"MsgRead":          0x1C,
	"MsgSoftAnnounce":  0x1F,
	"MsgReplSync":      0x24,
	"MsgRangeManifest": 0x25,
	"MsgFetchEntries":  0x26,
}

// retiredMsgBytes are the frames this layer once served: the per-key and
// replace-write frames (Put, Append, Get, KeyInfo, MultiPut, ReplPut),
// the read variants MsgRead replaced (MultiGet, MultiGetAny, GetMore,
// MultiGetTopKAny, SoftGet), the caller-less Remove, Stats and
// ReplRemove, and the second ways to converge replicas: ReplAppend
// (write-through is an any-mode MultiAppend) and PullRange (a cold pull
// is a manifest walk against an empty store). They stay unassigned: an
// old peer still sending one gets a typed refusal.
var retiredMsgBytes = []uint8{0x10, 0x11, 0x12, 0x15, 0x16, 0x20, 0x18, 0x1B, 0x1D, 0x1E, 0x27, 0x13, 0x14, 0x22, 0x21, 0x23}

func parityPeer() (*transport.Mem, *transport.Dispatcher) {
	net := transport.NewMem()
	d := transport.NewDispatcher()
	ep := net.Endpoint("parity", d.Serve)
	rng := rand.New(rand.NewSource(7))
	node := dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
	New(node, d)
	return net, d
}

// TestFrameParityGlobalIndex proves every index message type has a live
// dispatcher handler that survives hostile frames without panicking.
func TestFrameParityGlobalIndex(t *testing.T) {
	_, d := parityPeer()
	paritytest.Check(t, d, indexMsgTypes)
}

// TestFrameRegistryPinned pins the registry's size and the survivors'
// wire bytes.
func TestFrameRegistryPinned(t *testing.T) {
	if len(indexMsgTypes) != 7 {
		t.Errorf("index registry has %d frame types, want 7", len(indexMsgTypes))
	}
	if len(pinnedMsgBytes) != len(indexMsgTypes) {
		t.Errorf("pinned table has %d entries for %d frame types", len(pinnedMsgBytes), len(indexMsgTypes))
	}
	for name, b := range indexMsgTypes {
		if want, ok := pinnedMsgBytes[name]; !ok || want != b {
			t.Errorf("%s = 0x%02x, pinned 0x%02x (pinned: %v)", name, b, want, ok)
		}
	}
}

// TestRetiredFramesRefusedTyped sends every retired frame byte, with
// every hostile body, to a live peer: the dispatcher must answer each
// with its typed no-handler RemoteError — never a panic, never a handler.
func TestRetiredFramesRefusedTyped(t *testing.T) {
	net, d := parityPeer()
	client := net.Endpoint("old-peer", transport.NewDispatcher().Serve)
	for _, b := range retiredMsgBytes {
		if d.Handles(b) {
			t.Errorf("retired frame 0x%02x has a handler again", b)
		}
		for _, body := range paritytest.HostileBodies() {
			_, _, err := client.Call(context.Background(), "parity", b, body)
			var remote *transport.RemoteError
			if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no handler") {
				t.Errorf("retired frame 0x%02x: got %v, want the no-handler RemoteError", b, err)
			}
		}
	}
}
