// Package dht implements AlvisP2P's layer L2: a structured overlay
// (distributed hash table) on the 64-bit identifier ring. Each node keeps
// a successor list, a predecessor pointer, and a finger table; lookups are
// iterative, driven by the querying node, so remote handlers answer purely
// from local state (the property the congestion-control layer [2] and the
// transport rely on).
//
// Two finger-table policies are provided:
//
//   - PolicyIDSpace: classic Chord fingers at exponentially growing
//     *identifier* distances (self + 2^i). O(log n) routing when peer IDs
//     are uniform, degrading when the peer population is skewed in the ID
//     space.
//   - PolicyHopSpace: fingers at exponentially growing *rank* distances,
//     built by pointer doubling (finger[i+1] = finger[i]'s finger[i], with
//     finger[0] the successor), following Klemm et al., "On Routing in
//     Distributed Hash Tables" (P2P 2007), cited as [3] by the AlvisP2P
//     paper. Rank-space spacing is invariant under arbitrary ID skew, which
//     is the property the paper claims for its overlay.
//
// Message-type ranges used on the shared dispatcher:
//
//	0x01–0x0F  DHT (this package)
//	0x10–0x2F  global index (package globalindex)
//	0x30–0x3F  query-driven indexing (package qdi)
//	0x40–0x4F  global statistics / ranking (package ranking)
//	0x50–0x5F  local-engine forwarding and digests (package core)
package dht

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// FingerPolicy selects how the finger table is constructed.
type FingerPolicy int

const (
	// PolicyHopSpace builds fingers by pointer doubling in rank space
	// (the AlvisP2P overlay's policy).
	PolicyHopSpace FingerPolicy = iota
	// PolicyIDSpace builds classic Chord fingers in identifier space.
	PolicyIDSpace
)

func (p FingerPolicy) String() string {
	switch p {
	case PolicyHopSpace:
		return "hop-space"
	case PolicyIDSpace:
		return "id-space"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Remote identifies another node: its ring position and transport address.
type Remote struct {
	ID   ids.ID
	Addr transport.Addr
}

// IsZero reports whether the Remote is unset.
func (r Remote) IsZero() bool { return r.Addr == "" }

// Options configure a Node. The zero value is usable; NewNode fills in
// defaults.
type Options struct {
	// Policy selects the finger-table construction (default hop-space).
	Policy FingerPolicy
	// SuccListLen is the length of the successor list (default 8).
	SuccListLen int
}

const (
	// maxHops bounds a single iterative lookup.
	maxHops = 128
	// maxFingers bounds the finger table, one per doubling.
	maxFingers = 64
	// lookupRetries is how many times a failed lookup is restarted from
	// scratch before giving up. Restarts give stabilization a chance to
	// route around failed nodes.
	lookupRetries = 3
)

// Node is one DHT participant.
type Node struct {
	id   ids.ID
	self Remote
	ep   transport.Endpoint
	opts Options

	mu      sync.RWMutex
	pred    Remote
	succs   []Remote // successor list, nearest first; never empty
	fingers []Remote // fingers[i] ≈ 2^i ranks ahead (hop-space) or succ(id+2^i) (id-space)

	// ringEpoch counts observed changes to the node's ring pointers
	// (predecessor or successor list). Caches derived from ring state —
	// the batch Resolver — compare epochs to notice that responsibility
	// intervals may have moved and must be re-learned. A stable ring
	// never bumps it, so warm caches stay warm.
	ringEpoch uint64

	// watchers receive a RingChange after every epoch bump (see
	// OnRingChange in watch.go).
	watchers []func(RingChange)

	hopHist *metrics.Histogram
}

// RingEpoch returns the current ring-pointer change counter.
func (n *Node) RingEpoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ringEpoch
}

// NewNode creates a node with the given ring ID attached to ep, and
// registers the DHT's RPC handlers on d. The node starts as a
// single-member ring (its own successor); call Join to enter an existing
// network.
func NewNode(id ids.ID, ep transport.Endpoint, d *transport.Dispatcher, opts Options) *Node {
	if opts.SuccListLen == 0 {
		opts.SuccListLen = 8
	}
	n := &Node{
		id:      id,
		self:    Remote{ID: id, Addr: ep.Addr()},
		ep:      ep,
		opts:    opts,
		hopHist: metrics.NewHistogram(),
	}
	n.succs = []Remote{n.self}
	n.registerHandlers(d)
	return n
}

// ID returns the node's ring identifier.
func (n *Node) ID() ids.ID { return n.id }

// Self returns the node's own Remote descriptor.
func (n *Node) Self() Remote { return n.self }

// Endpoint returns the transport endpoint the node is attached to. Higher
// layers use it to issue their own RPCs.
func (n *Node) Endpoint() transport.Endpoint { return n.ep }

// Policy returns the finger-table policy in effect.
func (n *Node) Policy() FingerPolicy { return n.opts.Policy }

// HopHistogram returns the histogram of hop counts observed by this
// node's lookups.
func (n *Node) HopHistogram() *metrics.Histogram { return n.hopHist }

// Successor returns the current immediate successor.
func (n *Node) Successor() Remote {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.succs[0]
}

// Successors returns a copy of the successor list.
func (n *Node) Successors() []Remote {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Remote, len(n.succs))
	copy(out, n.succs)
	return out
}

// Predecessor returns the current predecessor (zero if unknown).
func (n *Node) Predecessor() Remote {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pred
}

// Fingers returns a copy of the finger table (for inspection and tests).
func (n *Node) Fingers() []Remote {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Remote, len(n.fingers))
	copy(out, n.fingers)
	return out
}

// Responsible reports whether this node is responsible for key: key lies
// in (pred, self]. A node with no predecessor (fresh ring) owns everything.
func (n *Node) Responsible(key ids.ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.pred.IsZero() {
		return true
	}
	return ids.Between(key, n.pred.ID, n.id)
}

// errStale signals a lookup attempt that must be restarted.
var errStale = errors.New("dht: stale routing state")

// ErrLookupFailed is returned when a lookup exhausts its retries.
var ErrLookupFailed = errors.New("dht: lookup failed")

// Lookup resolves the node responsible for key, returning it and the
// number of hops (routing RPCs) taken. A cancelled context stops the
// iterative routing (and its retries) at the next hop boundary.
func (n *Node) Lookup(ctx context.Context, key ids.ID) (Remote, int, error) {
	return n.lookupChain(ctx, key, nil)
}

// lookupChain is Lookup that also hands learn, when non-nil, every
// routing step's view of the ring: the node asked and its successor
// list, nearest first. The list says that its first entry owns
// (from, s₁], the next (s₁, s₂], and so on; a step at this node reads
// its own list with no RPC. A key this node owns takes no step and
// learns nothing.
func (n *Node) lookupChain(ctx context.Context, key ids.ID, learn func(from Remote, succs []Remote)) (Remote, int, error) {
	if n.Responsible(key) {
		n.hopHist.Add(0)
		return n.self, 0, nil
	}
	var lastErr error
	for attempt := 0; attempt <= lookupRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		r, hops, err := n.lookupFrom(ctx, n.self, key, learn)
		if err == nil {
			n.hopHist.Add(hops)
			return r, hops, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the failure is the cancellation; don't burn retries
		}
		// Give the ring a chance to repair before retrying.
		if serr := n.Stabilize(ctx); serr != nil {
			lastErr = fmt.Errorf("%v (stabilize: %v)", lastErr, serr)
		}
	}
	return Remote{}, 0, fmt.Errorf("%w: %w", ErrLookupFailed, lastErr)
}

// lookupFrom runs one iterative lookup for key starting at node start
// (either self or a bootstrap node), handing learn each step's successor
// list as lookupChain describes. Each loop iteration costs one routing
// RPC when the current node is remote. A frontier of untried candidates
// from the last successful step lets the lookup route around individual
// dead nodes.
func (n *Node) lookupFrom(ctx context.Context, start Remote, key ids.ID, learn func(from Remote, succs []Remote)) (Remote, int, error) {
	cur := start
	hops := 0
	var frontier []Remote
	for hops <= maxHops {
		var succs, cands []Remote
		if cur.Addr == n.self.Addr {
			succs, cands = n.localNextHop(key)
		} else {
			var err error
			succs, cands, err = n.rpcNextHop(ctx, cur.Addr, key)
			hops++
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					// The routing step failed because the caller gave up:
					// report the cancellation, don't route around it.
					return Remote{}, hops, cerr
				}
				// Current node died mid-lookup: fall back to an untried
				// candidate from the previous step.
				if len(frontier) > 0 {
					cur, frontier = frontier[0], frontier[1:]
					continue
				}
				return Remote{}, hops, fmt.Errorf("%w: next hop %s: %v", errStale, cur.Addr, err)
			}
		}
		if learn != nil {
			// A remote list longer than any this ring keeps is cut, so a
			// faulty peer cannot flood the learner's cache.
			learn(cur, succs[:min(len(succs), n.opts.SuccListLen)])
		}
		curSucc := succs[0]
		if ids.Between(key, cur.ID, curSucc.ID) {
			return curSucc, hops, nil
		}
		// Keep only candidates that make strict progress toward key.
		progress := cands[:0]
		for _, c := range cands {
			if c.IsZero() || c.Addr == cur.Addr {
				continue
			}
			if ids.BetweenOpen(c.ID, cur.ID, key) || c.ID == key {
				progress = append(progress, c)
			}
		}
		if len(progress) == 0 {
			// Tables offer nothing closer: with consistent rings this means
			// cur's successor covers key, which the termination test above
			// would have caught; treat as stale state.
			if !curSucc.IsZero() && curSucc.Addr != cur.Addr {
				cur, frontier = curSucc, nil
				continue
			}
			return Remote{}, hops, errStale
		}
		cur, frontier = progress[0], append([]Remote(nil), progress[1:]...)
	}
	return Remote{}, hops, fmt.Errorf("dht: lookup exceeded %d hops", maxHops)
}

// localNextHop is this node's own answer to a NextHop for key: a copy of
// its successor list and up to four routing-table entries that strictly
// precede key, best (closest-preceding) first.
func (n *Node) localNextHop(key ids.ID) (succs, cands []Remote) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return slices.Clone(n.succs), closestPreceding(n.id, key, n.fingers, n.succs, 4)
}

// closestPreceding selects up to max entries from fingers and succs that
// lie strictly within (selfID, key), ordered closest-to-key first.
func closestPreceding(selfID, key ids.ID, fingers, succs []Remote, max int) []Remote {
	var cands []Remote
	seen := make(map[transport.Addr]bool, len(fingers)+len(succs))
	add := func(r Remote) {
		if r.IsZero() || seen[r.Addr] {
			return
		}
		if ids.BetweenOpen(r.ID, selfID, key) {
			seen[r.Addr] = true
			cands = append(cands, r)
		}
	}
	for _, f := range fingers {
		add(f)
	}
	for _, s := range succs {
		add(s)
	}
	// Insertion sort by decreasing clockwise distance from self (all
	// candidates lie in (self, key), so larger distance = closer to key).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && ids.Distance(selfID, cands[j].ID) > ids.Distance(selfID, cands[j-1].ID); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if len(cands) > max {
		cands = cands[:max]
	}
	return cands
}

// Join inserts the node into the ring reachable at bootstrap: it resolves
// its own successor by routing from the bootstrap node, adopts it, and
// announces itself. Pointers are then repaired by Stabilize rounds. The
// context bounds the whole join, including the bootstrap dial on TCP
// transports.
func (n *Node) Join(ctx context.Context, bootstrap transport.Addr) error {
	if bootstrap == n.self.Addr {
		return errors.New("dht: cannot bootstrap from self")
	}
	boot, err := n.rpcPing(ctx, bootstrap)
	if err != nil {
		return fmt.Errorf("dht: join via %s: %w", bootstrap, err)
	}
	succ, _, err := n.lookupFrom(ctx, boot, n.id, nil)
	if err != nil {
		return fmt.Errorf("dht: join via %s: %w", bootstrap, err)
	}
	if succ.Addr == n.self.Addr {
		// The ring already routes our ID to us (rejoin after a partition).
		succ = boot
	}
	n.mu.Lock()
	delta := n.snapshotLocked()
	n.succs = []Remote{succ}
	n.pred = Remote{}
	n.fingers = nil
	ch := delta.fireLocked()
	n.mu.Unlock()
	n.deliver(ch)
	return n.rpcNotify(ctx, succ.Addr, n.self)
}

// Stabilize runs one maintenance round: check the predecessor's liveness,
// verify the successor (adopting its predecessor if that node sits between
// us), refresh the successor list, and notify the successor of our
// existence. It returns an error only if every known successor is
// unreachable.
func (n *Node) Stabilize(ctx context.Context) error {
	n.checkPredecessor(ctx)
	succs := n.Successors()
	var lastErr error
	for _, s := range succs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.Addr == n.self.Addr {
			// We are our own successor. If someone has notified us (a
			// second node joined), adopt them to break out of the
			// single-node state.
			if pred := n.Predecessor(); !pred.IsZero() && pred.Addr != n.self.Addr {
				n.adoptSuccessor(pred, nil)
				if err := n.rpcNotify(ctx, pred.Addr, n.self); err != nil {
					lastErr = err
					continue
				}
				return nil
			}
			n.adoptSuccessor(n.self, nil)
			return nil
		}
		pred, slist, err := n.rpcGetState(ctx, s.Addr)
		if err != nil {
			lastErr = err
			continue // successor dead: fail over to the next in the list
		}
		succ := s
		if !pred.IsZero() && pred.Addr != n.self.Addr && ids.BetweenOpen(pred.ID, n.id, s.ID) {
			// A node joined between us and our successor; adopt it if alive.
			if _, sl2, err2 := n.rpcGetState(ctx, pred.Addr); err2 == nil {
				succ, slist = pred, sl2
			}
		}
		n.adoptSuccessor(succ, slist)
		if err := n.rpcNotify(ctx, succ.Addr, n.self); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("dht: no live successor")
	}
	return lastErr
}

// adoptSuccessor installs succ as the immediate successor and extends the
// successor list with the successor's own list.
func (n *Node) adoptSuccessor(succ Remote, theirList []Remote) {
	n.mu.Lock()
	delta := n.snapshotLocked()
	list := make([]Remote, 0, n.opts.SuccListLen)
	list = append(list, succ)
	for _, r := range theirList {
		if len(list) >= n.opts.SuccListLen {
			break
		}
		if r.Addr == n.self.Addr {
			continue
		}
		dup := false
		for _, e := range list {
			if e.Addr == r.Addr {
				dup = true
				break
			}
		}
		if !dup {
			list = append(list, r)
		}
	}
	n.succs = list
	ch := delta.fireLocked()
	n.mu.Unlock()
	n.deliver(ch)
}

// notify is the handler-side predecessor update: candidate claims to be
// our predecessor.
func (n *Node) notify(candidate Remote) {
	n.mu.Lock()
	if candidate.Addr == n.self.Addr {
		n.mu.Unlock()
		return
	}
	delta := n.snapshotLocked()
	if n.pred.IsZero() || ids.BetweenOpen(candidate.ID, n.pred.ID, n.id) {
		n.pred = candidate
	}
	ch := delta.fireLocked()
	n.mu.Unlock()
	n.deliver(ch)
}

// setSuccessor force-installs a successor (graceful-leave repair).
func (n *Node) setSuccessor(succ Remote) {
	n.mu.Lock()
	delta := n.snapshotLocked()
	if succ.Addr == n.self.Addr {
		n.succs = []Remote{n.self}
	} else {
		n.succs = append([]Remote{succ}, n.succs...)
		// Deduplicate while preserving order.
		seen := map[transport.Addr]bool{}
		out := n.succs[:0]
		for _, s := range n.succs {
			if seen[s.Addr] {
				continue
			}
			seen[s.Addr] = true
			out = append(out, s)
		}
		if len(out) > n.opts.SuccListLen {
			out = out[:n.opts.SuccListLen]
		}
		n.succs = out
	}
	ch := delta.fireLocked()
	n.mu.Unlock()
	n.deliver(ch)
}

// PredecessorFailed clears the predecessor pointer; the next correct
// notify will repair it. Callers use it when they detect the predecessor
// is unreachable.
func (n *Node) PredecessorFailed() {
	n.mu.Lock()
	delta := n.snapshotLocked()
	n.pred = Remote{}
	ch := delta.fireLocked()
	n.mu.Unlock()
	n.deliver(ch)
}

// checkPredecessor pings the predecessor and clears the pointer if it is
// unreachable, so that the live predecessor's next notify can take over.
// A failure caused by the caller's own cancelled context is not evidence
// of a dead predecessor and leaves the pointer alone.
func (n *Node) checkPredecessor(ctx context.Context) {
	pred := n.Predecessor()
	if pred.IsZero() || pred.Addr == n.self.Addr {
		return
	}
	if _, err := n.rpcPing(ctx, pred.Addr); err != nil && ctx.Err() == nil {
		n.PredecessorFailed()
	}
}

// Leave departs gracefully: the predecessor and successor are linked to
// each other. The caller is responsible for re-publishing any application
// state (the global index treats stored entries as soft state).
func (n *Node) Leave(ctx context.Context) error {
	n.mu.RLock()
	pred, succ := n.pred, n.succs[0]
	n.mu.RUnlock()
	if succ.Addr == n.self.Addr {
		return nil // single-node ring
	}
	var firstErr error
	if !pred.IsZero() {
		if err := n.rpcSetSuccessor(ctx, pred.Addr, succ); err != nil {
			firstErr = err
		}
		if err := n.rpcNotify(ctx, succ.Addr, pred); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// InstallRing force-installs ring pointers computed from a global view.
// It exists for the simulator, which builds large rings directly instead
// of replaying thousands of join/stabilize rounds; protocol-built and
// installed rings are verified equivalent by the package tests.
func (n *Node) InstallRing(pred Remote, succs []Remote, fingers []Remote) {
	n.mu.Lock()
	delta := n.snapshotLocked()
	n.pred = pred
	if len(succs) == 0 {
		succs = []Remote{n.self}
	}
	n.succs = append([]Remote(nil), succs...)
	n.fingers = append([]Remote(nil), fingers...)
	ch := delta.fireLocked()
	n.mu.Unlock()
	n.deliver(ch)
}
