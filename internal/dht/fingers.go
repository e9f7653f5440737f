package dht

import (
	"context"
	"math"
	"sort"

	"repro/internal/ids"
)

// FixFingers rebuilds the finger table according to the node's policy.
//
// Hop-space policy (the AlvisP2P overlay): fingers are placed at
// exponentially growing rank distances by pointer doubling —
// fingers[0] is the successor (1 rank ahead) and fingers[i+1] is
// fingers[i]'s own level-i finger, hence 2^(i+1) ranks ahead of us,
// whatever the ID distribution looks like. One call builds the table as
// far as the neighbours' tables allow; after O(log n) network-wide
// rounds every table is complete. Table size is automatically ~log2(n).
//
// ID-space policy (classic Chord, the comparison baseline of [3]): a
// routing table of the same O(log n) size holds fingers at exponentially
// growing *identifier* distances ring/2^j, j = 1..B, where the budget B ≈
// log2(n)+2 is derived from the local density estimate (successor-list
// span). Under uniform peer IDs, halving the ID distance halves the rank
// distance and routing is O(log n); under a skewed population, ID
// distances no longer track rank distances and routing degrades — the
// effect experiment E5 measures.
func (n *Node) FixFingers(ctx context.Context) error {
	switch n.opts.Policy {
	case PolicyIDSpace:
		return n.fixFingersIDSpace(ctx)
	default:
		return n.fixFingersHopSpace(ctx)
	}
}

func (n *Node) fixFingersHopSpace(ctx context.Context) error {
	succ := n.Successor()
	if succ.Addr == n.self.Addr {
		n.mu.Lock()
		n.fingers = nil
		n.mu.Unlock()
		return nil
	}
	fingers := []Remote{succ}
	cur := succ
	var firstErr error
	for level := 0; level < maxFingers; level++ {
		f, err := n.rpcGetFinger(ctx, cur.Addr, level)
		if err != nil {
			firstErr = err
			break
		}
		if f.IsZero() || f.Addr == n.self.Addr || f.Addr == cur.Addr {
			break // neighbour's table ends here, or we wrapped exactly
		}
		// Wrap detection: the next finger must stay strictly ahead of cur
		// and strictly before us on the ring; once 2^(level+1) meets or
		// exceeds the ring size the pointer passes self.
		if !ids.BetweenOpen(f.ID, cur.ID, n.id) {
			break
		}
		fingers = append(fingers, f)
		cur = f
	}
	n.mu.Lock()
	n.fingers = fingers
	n.mu.Unlock()
	return firstErr
}

// fingerBudget returns B ≈ log2(n)+2 where n is estimated from the span
// of the successor list (the standard local density estimator).
func (n *Node) fingerBudget() int {
	n.mu.RLock()
	succs := n.succs
	var span uint64
	if len(succs) > 0 {
		span = ids.Distance(n.id, succs[len(succs)-1].ID)
	}
	cnt := len(succs)
	n.mu.RUnlock()
	if span == 0 || cnt == 0 {
		return 4
	}
	avgGap := float64(span) / float64(cnt)
	nEst := math.Pow(2, 64) / avgGap
	b := int(math.Ceil(math.Log2(nEst))) + 2
	if b < 4 {
		b = 4
	}
	if b > 62 {
		b = 62
	}
	return b
}

func (n *Node) fixFingersIDSpace(ctx context.Context) error {
	succ := n.Successor()
	if succ.Addr == n.self.Addr {
		n.mu.Lock()
		n.fingers = nil
		n.mu.Unlock()
		return nil
	}
	budget := n.fingerBudget()
	var fingers []Remote
	var firstErr error
	seen := map[ids.ID]bool{n.id: true}
	for j := 1; j <= budget; j++ {
		dist := uint64(1) << (64 - uint(j)) // ring/2^j
		target := ids.Add(n.id, dist)
		r, _, err := n.lookupFrom(ctx, n.self, target, nil)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		fingers = append(fingers, r)
	}
	n.mu.Lock()
	n.fingers = fingers
	n.mu.Unlock()
	return firstErr
}

// BuildOracleTables computes, from a global view of all nodes, the ring
// pointers and finger tables each node would converge to under its
// policy, and installs them. The simulator uses it to spin up large
// networks instantly; TestHopSpaceProtocolMatchesOracle verifies the
// protocol converges to exactly these tables.
func BuildOracleTables(nodes []*Node) {
	if len(nodes) == 0 {
		return
	}
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })

	nn := len(sorted)
	remotes := make([]Remote, nn)
	for i, node := range sorted {
		remotes[i] = node.self
	}
	budget := int(math.Ceil(math.Log2(float64(nn)))) + 2
	for i, node := range sorted {
		if nn == 1 {
			node.InstallRing(node.self, []Remote{node.self}, nil)
			continue
		}
		pred := remotes[(i-1+nn)%nn]
		succListLen := node.opts.SuccListLen
		if succListLen > nn-1 {
			succListLen = nn - 1
		}
		var succs []Remote
		for k := 1; k <= succListLen; k++ {
			succs = append(succs, remotes[(i+k)%nn])
		}
		var fingers []Remote
		switch node.opts.Policy {
		case PolicyIDSpace:
			seen := map[ids.ID]bool{node.id: true}
			for j := 1; j <= budget; j++ {
				dist := uint64(1) << (64 - uint(j))
				r := successorOf(remotes, ids.Add(node.id, dist))
				if seen[r.ID] {
					continue
				}
				seen[r.ID] = true
				fingers = append(fingers, r)
			}
		default: // hop space: 2^l ranks ahead, stopping before wrapping
			for l := 0; ; l++ {
				rank := 1 << l
				if rank >= nn {
					break
				}
				fingers = append(fingers, remotes[(i+rank)%nn])
			}
		}
		node.InstallRing(pred, succs, fingers)
	}
}

// successorOf returns the first remote at or clockwise-after key.
// remotes must be sorted by ID.
func successorOf(remotes []Remote, key ids.ID) Remote {
	i := sort.Search(len(remotes), func(i int) bool { return remotes[i].ID >= key })
	if i == len(remotes) {
		i = 0
	}
	return remotes[i]
}
