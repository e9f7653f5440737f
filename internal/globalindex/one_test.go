package globalindex

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dht"
	"repro/internal/postings"
	"repro/internal/transport"
)

// A single key is a batch of one: the index exports only the Multi
// operations, and these helpers spell the one-item slices for the tests.

func putOne(ctx context.Context, ix *Index, terms []string, list *postings.List, bound int) (int, error) {
	return appendOne(ctx, ix, terms, list, bound, 0)
}

// appendOne writes list under terms as the writes of the peers it names
// — an item per peer, the first announcing announcedDF — and returns the
// stored length they leave.
func appendOne(ctx context.Context, ix *Index, terms []string, list *postings.List, bound, announcedDF int) (int, error) {
	items := []AppendItem{{Terms: terms, List: &postings.List{}, Bound: bound, AnnouncedDF: announcedDF}}
	of := make(map[transport.Addr]int)
	for _, p := range list.Entries {
		i, ok := of[p.Ref.Peer]
		if !ok && len(of) > 0 {
			i = len(items)
			items = append(items, AppendItem{Terms: terms, List: &postings.List{}, Bound: bound})
		}
		of[p.Ref.Peer] = i
		items[i].List.Add(p)
	}
	ns, err := ix.MultiAppend(ctx, items)
	return slices.Max(ns), err
}

func getOne(ctx context.Context, ix *Index, terms []string, maxResults int, policy ReadPolicy, opts ...ReadOption) (*postings.List, bool, bool, error) {
	res, err := ix.MultiGet(ctx, []GetItem{{Terms: terms, MaxResults: maxResults}}, policy, opts...)
	return res[0].List, res[0].Found, res[0].WantIndex, err
}

func keyInfoOne(ctx context.Context, ix *Index, terms []string) (df int64, present, truncated bool, err error) {
	res, err := ix.MultiKeyInfo(ctx, []KeyInfoItem{{Terms: terms}})
	return res[0].DF, res[0].Present, res[0].Truncated, err
}

// The network meters book frames by type, and every read — like every
// append, owner write or write-through replay — is one type: the ring
// fixtures attach their endpoints through tapped, which counts the
// MsgRead and MsgMultiAppend frames each peer receives by mode — the
// tests' view of which copy a frame was addressed to, and how.
type tapKey struct {
	net  *transport.Mem
	addr transport.Addr
}

// modeTap counts one peer's moded frames by mode byte: [0] MsgRead,
// [1] MsgMultiAppend.
type modeTap [2][3]atomic.Int64

var modeTaps sync.Map // tapKey -> *modeTap

func tapped(net *transport.Mem, name string, d *transport.Dispatcher) transport.Endpoint {
	tap := new(modeTap)
	ep := net.Endpoint(name, func(ctx context.Context, from transport.Addr, msg uint8, body []byte) (uint8, []byte, error) {
		if (msg == MsgRead || msg == MsgMultiAppend) && len(body) > 0 && body[0] <= readSoft {
			tap[tapIndex(msg)][body[0]].Add(1)
		}
		return d.Serve(ctx, from, msg, body)
	})
	modeTaps.Store(tapKey{net, ep.Addr()}, tap)
	return ep
}

func tapIndex(msg uint8) int {
	if msg == MsgMultiAppend {
		return 1
	}
	return 0
}

// modeFrames reports how many msg frames (MsgRead or MsgMultiAppend) in
// the given mode the addressed peers have received so far, summed.
func modeFrames(net *transport.Mem, msg, mode uint8, addrs ...transport.Addr) (n int64) {
	for _, addr := range addrs {
		tap, _ := modeTaps.Load(tapKey{net, addr})
		n += tap.(*modeTap)[tapIndex(msg)][mode].Load()
	}
	return n
}

// readFrames is modeFrames for MsgRead.
func readFrames(net *transport.Mem, mode uint8, addrs ...transport.Addr) int64 {
	return modeFrames(net, MsgRead, mode, addrs...)
}

// addrsOf lists the nodes' addresses, for ring-wide readFrames counts.
func addrsOf(nodes []*dht.Node) []transport.Addr {
	out := make([]transport.Addr, len(nodes))
	for i, n := range nodes {
		out[i] = n.Self().Addr
	}
	return out
}
