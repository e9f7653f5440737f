package dht

import (
	"context"
	"fmt"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DHT message types (range 0x01–0x0F of the shared dispatcher).
const (
	MsgPing         uint8 = 0x01 // () -> Remote (the serving node)
	MsgNextHop      uint8 = 0x02 // (key) -> (successor list, candidates)
	MsgGetState     uint8 = 0x03 // () -> (predecessor, successor list); stabilization only
	MsgNotify       uint8 = 0x04 // (candidate) -> ()
	MsgGetFinger    uint8 = 0x05 // (level) -> Remote (zero if absent)
	MsgSetSuccessor uint8 = 0x06 // (successor) -> ()
)

func encodeRemote(w *wire.Writer, r Remote) {
	w.Uint64(uint64(r.ID))
	w.String(string(r.Addr))
}

func decodeRemote(r *wire.Reader) Remote {
	id := ids.ID(r.Uint64())
	addr := transport.Addr(r.String())
	return Remote{ID: id, Addr: addr}
}

func encodeRemotes(w *wire.Writer, rs []Remote) {
	w.Uvarint(uint64(len(rs)))
	for _, r := range rs {
		encodeRemote(w, r)
	}
}

// minRemoteLen is the smallest encoded Remote: an 8-byte ID and a
// 1-byte address length.
const minRemoteLen = 9

// decodeRemotes reads a count-prefixed list of Remotes. A count the rest
// of the body cannot hold is corrupt: checked before the allocation, it
// keeps a few hostile bytes from reserving memory the body never fills.
func decodeRemotes(r *wire.Reader) ([]Remote, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()/minRemoteLen) {
		return nil, wire.ErrCorrupt
	}
	out := make([]Remote, n)
	for i := range out {
		out[i] = decodeRemote(r)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeRemoteAnswer decodes the answer to MsgPing and MsgGetFinger: one
// Remote.
func decodeRemoteAnswer(resp []byte) (Remote, error) {
	r := wire.NewReader(resp)
	rem := decodeRemote(r)
	return rem, r.Err()
}

// decodeNextHop decodes the answer to MsgNextHop: the replier's
// successor list, nearest first and never empty, then its routing
// candidates.
func decodeNextHop(resp []byte) (succs, cands []Remote, err error) {
	r := wire.NewReader(resp)
	succs, err = decodeRemotes(r)
	if err == nil && len(succs) == 0 {
		err = wire.ErrCorrupt
	}
	if err == nil {
		cands, err = decodeRemotes(r)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("dht: bad NextHop response: %w", err)
	}
	return succs, cands, nil
}

// decodeState decodes the answer to MsgGetState: the replier's
// predecessor and successor list.
func decodeState(resp []byte) (pred Remote, succs []Remote, err error) {
	r := wire.NewReader(resp)
	pred = decodeRemote(r)
	succs, err = decodeRemotes(r)
	if err != nil {
		return Remote{}, nil, fmt.Errorf("dht: bad GetState response: %w", err)
	}
	return pred, succs, nil
}

// registerHandlers wires the node's RPC surface onto the dispatcher. All
// handlers answer from local state only.
func (n *Node) registerHandlers(d *transport.Dispatcher) {
	d.Handle(MsgPing, func(_ context.Context, from transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
		w := wire.NewWriter(32)
		encodeRemote(w, n.self)
		return MsgPing, w.Bytes(), nil
	})

	d.Handle(MsgNextHop, func(_ context.Context, from transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
		r := wire.NewReader(body)
		key := ids.ID(r.Uint64())
		if err := r.Err(); err != nil {
			return 0, nil, err
		}
		w := wire.NewWriter(256)
		n.mu.RLock()
		encodeRemotes(w, n.succs)
		encodeRemotes(w, closestPreceding(n.id, key, n.fingers, n.succs, 4))
		n.mu.RUnlock()
		return MsgNextHop, w.Bytes(), nil
	})

	d.Handle(MsgGetState, func(_ context.Context, from transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
		w := wire.NewWriter(256)
		n.mu.RLock()
		encodeRemote(w, n.pred)
		encodeRemotes(w, n.succs)
		n.mu.RUnlock()
		return MsgGetState, w.Bytes(), nil
	})

	d.Handle(MsgNotify, func(_ context.Context, from transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
		r := wire.NewReader(body)
		cand := decodeRemote(r)
		if err := r.Err(); err != nil {
			return 0, nil, err
		}
		n.notify(cand)
		return MsgNotify, nil, nil
	})

	d.Handle(MsgGetFinger, func(_ context.Context, from transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
		r := wire.NewReader(body)
		level := int(r.Uvarint())
		if err := r.Err(); err != nil {
			return 0, nil, err
		}
		n.mu.RLock()
		var f Remote
		if level == 0 {
			f = n.succs[0]
		} else if level > 0 && level < len(n.fingers) {
			// The lower bound matters: a hostile uvarint above 1<<63
			// arrives here as a negative int after conversion.
			f = n.fingers[level]
		}
		n.mu.RUnlock()
		w := wire.NewWriter(32)
		encodeRemote(w, f)
		return MsgGetFinger, w.Bytes(), nil
	})

	d.Handle(MsgSetSuccessor, func(_ context.Context, from transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
		r := wire.NewReader(body)
		succ := decodeRemote(r)
		if err := r.Err(); err != nil {
			return 0, nil, err
		}
		n.setSuccessor(succ)
		return MsgSetSuccessor, nil, nil
	})
}

func (n *Node) rpcPing(ctx context.Context, to transport.Addr) (Remote, error) {
	_, resp, err := n.ep.Call(ctx, to, MsgPing, nil)
	if err != nil {
		return Remote{}, err
	}
	return decodeRemoteAnswer(resp)
}

func (n *Node) rpcNextHop(ctx context.Context, to transport.Addr, key ids.ID) (succs, cands []Remote, err error) {
	w := wire.NewWriter(8)
	w.Uint64(uint64(key))
	_, resp, err := n.ep.Call(ctx, to, MsgNextHop, w.Bytes())
	if err != nil {
		return nil, nil, err
	}
	return decodeNextHop(resp)
}

func (n *Node) rpcGetState(ctx context.Context, to transport.Addr) (pred Remote, succs []Remote, err error) {
	_, resp, err := n.ep.Call(ctx, to, MsgGetState, nil)
	if err != nil {
		return Remote{}, nil, err
	}
	return decodeState(resp)
}

func (n *Node) rpcNotify(ctx context.Context, to transport.Addr, cand Remote) error {
	w := wire.NewWriter(32)
	encodeRemote(w, cand)
	_, _, err := n.ep.Call(ctx, to, MsgNotify, w.Bytes())
	return err
}

func (n *Node) rpcGetFinger(ctx context.Context, to transport.Addr, level int) (Remote, error) {
	w := wire.NewWriter(4)
	w.Uvarint(uint64(level))
	_, resp, err := n.ep.Call(ctx, to, MsgGetFinger, w.Bytes())
	if err != nil {
		return Remote{}, err
	}
	return decodeRemoteAnswer(resp)
}

func (n *Node) rpcSetSuccessor(ctx context.Context, to transport.Addr, succ Remote) error {
	w := wire.NewWriter(32)
	encodeRemote(w, succ)
	_, _, err := n.ep.Call(ctx, to, MsgSetSuccessor, w.Bytes())
	return err
}
