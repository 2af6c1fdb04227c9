package cluster

import (
	"fmt"
	"slices"
)

// This file defines the hierarchical aggregation overlay that replaces
// the O(N^2)-message all-to-all share exchange of Algorithm 2 with an
// O(N)-message, O(log N)-hop tree reduction. The per-round consensus
// (straggler = argmax cost with lowest-id tie-break, min local alpha,
// max renormalization) is a pure comparison fold — associative and
// commutative, with no floating-point arithmetic — so reducing it up a
// tree and broadcasting the result back down yields bit-identical
// consensus to the flat scan (see core.PeerAggregate.Merge).

// Topology selects the per-round communication pattern of an elastic
// deployment.
type Topology int

const (
	// TopologyFlat is the paper's all-to-all share exchange: every peer
	// broadcasts its PeerShare to every other peer and computes the
	// round consensus locally. O(N^2) messages per round.
	TopologyFlat Topology = iota
	// TopologyTree aggregates shares up a deterministic k-ary tree over
	// the roster and broadcasts the consensus back down: ~3N messages
	// per round (N-1 up, N-1 down, N-1 decisions) over 2*ceil(log_k N)
	// hops. Consensus values are bit-identical to TopologyFlat.
	TopologyTree
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case TopologyFlat:
		return "flat"
	case TopologyTree:
		return "tree"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// MarshalText implements encoding.TextMarshaler so a Topology can back
// a flag.TextVar flag.
func (t Topology) MarshalText() ([]byte, error) {
	switch t {
	case TopologyFlat, TopologyTree:
		return []byte(t.String()), nil
	default:
		return nil, fmt.Errorf("cluster: unknown topology %d", int(t))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting "flat"
// and "tree".
func (t *Topology) UnmarshalText(text []byte) error {
	switch string(text) {
	case "flat":
		*t = TopologyFlat
	case "tree":
		*t = TopologyTree
	default:
		return fmt.Errorf("cluster: unknown topology %q (want flat or tree)", text)
	}
	return nil
}

// DefaultFanout is the aggregation tree fanout used when
// ElasticPeerConfig.Fanout is zero. Eight keeps the tree two levels
// deep up to 72 peers and three levels up to 584.
const DefaultFanout = 8

// aggTree is the deterministic k-ary aggregation overlay over one
// roster view: members sorted ascending by id, the member at position p
// parented at position (p-1)/fanout with children at positions
// p*fanout+1 .. p*fanout+fanout. The root (position 0) is the lowest
// live id — the same peer the roster designates membership coordinator.
// Every peer with the same roster view derives the same tree, so the
// overlay needs no negotiation and is rebuilt locally on every
// membership change. The tree holds the roster's immutable member slice
// rather than a copy and finds positions by binary search, so building
// it is O(1) and each query O(log N).
type aggTree struct {
	fanout  int
	members []int // ascending; shared with the roster, never written
}

// newAggTree builds the overlay over members, which must be ascending
// and immutable (a Roster view); the tree keeps the slice without
// copying it. Fanout values below 2 fall back to DefaultFanout.
func newAggTree(members []int, fanout int) *aggTree {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	return &aggTree{fanout: fanout, members: members}
}

// pos returns id's position in the layout, and false for non-members.
func (t *aggTree) pos(id int) (int, bool) {
	return slices.BinarySearch(t.members, id)
}

// root returns the tree root (lowest member id).
func (t *aggTree) root() int { return t.members[0] }

// contains reports whether id is a node of this tree.
func (t *aggTree) contains(id int) bool {
	_, ok := t.pos(id)
	return ok
}

// parent returns the id aggregates are forwarded to, and false at the
// root (or for ids outside the tree).
func (t *aggTree) parent(id int) (int, bool) {
	p, ok := t.pos(id)
	if !ok || p == 0 {
		return 0, false
	}
	return t.members[(p-1)/t.fanout], true
}

// children returns the ids whose up-phase aggregates id waits for, in
// ascending order. The result is a subslice of the shared member slice
// with its capacity capped at its length, so a caller's append copies
// instead of writing into the roster; callers must not write to it.
func (t *aggTree) children(id int) []int {
	p, ok := t.pos(id)
	if !ok {
		return nil
	}
	lo := p*t.fanout + 1
	if lo >= len(t.members) {
		return nil
	}
	hi := min(lo+t.fanout, len(t.members))
	return t.members[lo:hi:hi]
}

// depth returns the number of edges on the longest root-to-leaf path
// (0 for a single-node tree).
func (t *aggTree) depth() int {
	d := 0
	for p := len(t.members) - 1; p > 0; p = (p - 1) / t.fanout {
		d++
	}
	return d
}
