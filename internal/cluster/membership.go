package cluster

import (
	"fmt"
	"slices"
)

// This file generalizes the eviction-only peer bookkeeping of the
// fail-stop extension into a full membership module: a versioned roster
// that supports both evictions (fail-stop departures) and admissions
// (elastic joins), with a per-peer event log that makes churn auditable
// and lets tests assert version monotonicity and cross-run determinism.
//
// The roster is a local view — there is no membership service. Peers
// converge the same way evictions already converge (union of broadcast
// notices), extended with coordinator-announced admissions: the lowest
// live id announces each join with an explicit application round two
// rounds in the future, and every member applies it at that round
// boundary, so the simplex renormalization of core.PeerState.Admit
// happens at the same round on every peer.

// RosterEvent records one applied membership change. Join reports
// whether the change was an admission (true) or an eviction (false);
// Round is the round the applying peer was executing; Version is the
// roster version after applying.
type RosterEvent struct {
	// Version is the roster version after this event was applied.
	Version uint64
	// Round is the local round at application time.
	Round int
	// Join distinguishes admissions (true) from evictions (false).
	Join bool
	// Peer is the id that joined or was evicted.
	Peer int
}

// Roster is one peer's versioned view of the elastic membership. The
// zero value is not usable; construct with NewRoster or NewRosterAt.
// (Inside the package a deployment hands one ascending slice to every
// incumbent's Roster without copying; see runIncumbentPeer.)
// Versions increase by at least one per applied change and never
// decrease; between churn events all live peers converge to the same
// member set (evictions by union of notices, admissions by applying the
// coordinator's announcement at its stated round).
//
// The live set is an immutable ascending slice: churn builds a new
// slice (O(N) per event) and never writes an old one, so the overlay can
// share it without copying and the per-round queries stay cheap — the
// coordinator is the first element and membership is a binary search.
type Roster struct {
	version uint64
	members []int        // live ids, ascending; replaced on churn, never mutated
	evicted map[int]bool // ids evicted from this view; never readmitted
	events  []RosterEvent
}

// NewRoster builds a version-0 roster over the given initial members.
func NewRoster(members []int) *Roster {
	return NewRosterAt(members, 0)
}

// NewRosterAt builds a roster over the given members (any order;
// duplicates collapse) starting at the given version. Joiners use it to
// adopt the coordinator's snapshot at the announced version.
func NewRosterAt(members []int, version uint64) *Roster {
	ids := slices.Clone(members)
	slices.Sort(ids)
	return &Roster{version: version, members: slices.Compact(ids)}
}

// Version returns the current roster version.
func (r *Roster) Version() uint64 { return r.version }

// Size returns the number of live members.
func (r *Roster) Size() int { return len(r.members) }

// Has reports whether id is a live member.
func (r *Roster) Has(id int) bool {
	_, ok := slices.BinarySearch(r.members, id)
	return ok
}

// Knows reports whether id has ever been a member (live or evicted).
// Known ids are never readmitted, which keeps the fail-stop model
// sound: an evicted peer's frozen workload was already absorbed.
func (r *Roster) Knows(id int) bool { return r.evicted[id] || r.Has(id) }

// Members returns the live member ids in ascending order. This is the
// canonical order every derived structure uses (broadcast order, the
// aggregation tree layout), so all peers with the same view derive the
// same topology. The slice is a fresh copy owned by the caller.
func (r *Roster) Members() []int {
	ids := make([]int, len(r.members))
	copy(ids, r.members)
	return ids
}

// view returns the live member ids in ascending order without copying.
// The slice is shared and immutable: churn replaces it rather than
// writing to it, so holders (the aggregation overlay) keep a consistent
// snapshot, and nobody may write through it.
func (r *Roster) view() []int { return r.members }

// Coordinator returns the membership coordinator under this view: the
// lowest live id (which is also the root of the aggregation tree, so
// join announcements and down-phase consensus traverse the same FIFO
// links). It returns -1 on an empty roster.
func (r *Roster) Coordinator() int {
	if len(r.members) == 0 {
		return -1
	}
	return r.members[0]
}

// ApplyJoin admits id at the given round. The announced version comes
// from the coordinator's RosterUpdate; the local version advances to
// max(local+1, announced) so versions stay monotone on every peer even
// when concurrent evictions were applied in different orders.
func (r *Roster) ApplyJoin(id, round int, version uint64) error {
	if r.Knows(id) {
		return fmt.Errorf("cluster: roster already knows peer %d", id)
	}
	at, _ := slices.BinarySearch(r.members, id)
	next := make([]int, 0, len(r.members)+1)
	next = append(next, r.members[:at]...)
	next = append(next, id)
	r.members = append(next, r.members[at:]...)
	if version <= r.version {
		version = r.version + 1
	}
	r.version = version
	r.events = append(r.events, RosterEvent{Version: r.version, Round: round, Join: true, Peer: id})
	return nil
}

// ApplyEvict removes id at the given round, bumping the version. It
// reports whether id was live (a duplicate eviction is a no-op).
func (r *Roster) ApplyEvict(id, round int) bool {
	at, ok := slices.BinarySearch(r.members, id)
	if !ok {
		return false
	}
	r.members = slices.Concat(r.members[:at], r.members[at+1:])
	if r.evicted == nil {
		r.evicted = make(map[int]bool)
	}
	r.evicted[id] = true
	r.version++
	r.events = append(r.events, RosterEvent{Version: r.version, Round: round, Join: false, Peer: id})
	return true
}

// Events returns the applied membership changes in application order.
// The slice aliases internal state; callers must not mutate it.
func (r *Roster) Events() []RosterEvent { return r.events }
