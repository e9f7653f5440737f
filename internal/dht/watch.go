package dht

import "slices"

// RingChange describes one observed change to a node's ring pointers. It
// is the delta behind a RingEpoch bump: which pointer moved, from what to
// what. Upper layers (the global index's replicator) subscribe to react to
// membership changes — a new predecessor shrinks or grows the node's
// responsibility range, a changed successor list moves where its replicas
// must live.
type RingChange struct {
	// Epoch is the node's RingEpoch after this change.
	Epoch uint64
	// PredChanged reports that the predecessor pointer moved; OldPred and
	// NewPred carry the transition (either may be zero: a cleared pointer
	// after PredecessorFailed, or a fresh ring learning its predecessor).
	PredChanged      bool
	OldPred, NewPred Remote
	// SuccsChanged reports that the successor list changed; OldSuccs and
	// NewSuccs carry the transition.
	SuccsChanged       bool
	OldSuccs, NewSuccs []Remote
}

// OnRingChange registers fn to be invoked after every change to the
// node's ring pointers (the same changes that bump RingEpoch). Callbacks
// run synchronously on the goroutine that performed the change, after the
// node's lock is released, in registration order; they may call back into
// the node and issue RPCs, but must tolerate being invoked from ring
// maintenance paths (Stabilize, Join, a handled Notify). Registration is
// not synchronized with concurrent ring changes: register before the node
// joins a network.
func (n *Node) OnRingChange(fn func(RingChange)) {
	n.mu.Lock()
	n.watchers = append(n.watchers, fn)
	n.mu.Unlock()
}

// ringDelta captures the before/after of a pointer mutation while the
// node lock is held; fire() compares and notifies after release.
type ringDelta struct {
	n        *Node
	oldPred  Remote
	oldSuccs []Remote
}

// snapshotLocked records the current pointers. Callers hold n.mu.
func (n *Node) snapshotLocked() ringDelta {
	return ringDelta{
		n:        n,
		oldPred:  n.pred,
		oldSuccs: append([]Remote(nil), n.succs...),
	}
}

// fireLocked compares the snapshot against the current pointers, bumps
// the epoch if anything moved, and returns the pending change (zero Epoch
// = no change). Callers hold n.mu, then invoke deliver() after releasing
// it.
func (d ringDelta) fireLocked() RingChange {
	n := d.n
	ch := RingChange{}
	if n.pred != d.oldPred {
		ch.PredChanged = true
		ch.OldPred, ch.NewPred = d.oldPred, n.pred
	}
	if !slices.Equal(n.succs, d.oldSuccs) {
		ch.SuccsChanged = true
		ch.OldSuccs = d.oldSuccs
		ch.NewSuccs = append([]Remote(nil), n.succs...)
	}
	if !ch.PredChanged && !ch.SuccsChanged {
		return RingChange{}
	}
	n.ringEpoch++
	ch.Epoch = n.ringEpoch
	return ch
}

// deliver invokes the registered watchers for a non-zero change. Must be
// called without holding n.mu.
func (n *Node) deliver(ch RingChange) {
	if ch.Epoch == 0 {
		return
	}
	n.mu.RLock()
	var watchers []func(RingChange)
	watchers = append(watchers, n.watchers...)
	n.mu.RUnlock()
	for _, fn := range watchers {
		fn(ch)
	}
}
