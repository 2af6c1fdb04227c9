package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refRoster is the reference model for Roster: the original map-based
// implementation, which scans the live set for every query. Roster
// replaced it with an immutable sorted slice; FuzzRoster drives both
// with the same inputs and requires identical observable behaviour.
type refRoster struct {
	version uint64
	alive   map[int]bool
	known   map[int]bool // ever-seen ids; evicted ids are never readmitted
	events  []RosterEvent
}

func newRefRoster(members []int, version uint64) *refRoster {
	r := &refRoster{
		version: version,
		alive:   make(map[int]bool, len(members)),
		known:   make(map[int]bool, len(members)),
	}
	for _, id := range members {
		r.alive[id] = true
		r.known[id] = true
	}
	return r
}

func (r *refRoster) Version() uint64       { return r.version }
func (r *refRoster) Size() int             { return len(r.alive) }
func (r *refRoster) Has(id int) bool       { return r.alive[id] }
func (r *refRoster) Knows(id int) bool     { return r.known[id] }
func (r *refRoster) Events() []RosterEvent { return r.events }

func (r *refRoster) Members() []int {
	ids := make([]int, 0, len(r.alive))
	for id := range r.alive {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Coordinator is the lowest live id, -1 when empty. (The original scan
// used -1 as its "none yet" marker, which picked an arbitrary member
// once a negative id was live; the model keeps an explicit flag.)
func (r *refRoster) Coordinator() int {
	c, found := -1, false
	for id := range r.alive {
		if !found || id < c {
			c, found = id, true
		}
	}
	return c
}

func (r *refRoster) ApplyJoin(id, round int, version uint64) error {
	if r.known[id] {
		return fmt.Errorf("cluster: roster already knows peer %d", id)
	}
	r.alive[id] = true
	r.known[id] = true
	if version <= r.version {
		version = r.version + 1
	}
	r.version = version
	r.events = append(r.events, RosterEvent{Version: r.version, Round: round, Join: true, Peer: id})
	return nil
}

func (r *refRoster) ApplyEvict(id, round int) bool {
	if !r.alive[id] {
		return false
	}
	delete(r.alive, id)
	r.version++
	r.events = append(r.events, RosterEvent{Version: r.version, Round: round, Join: false, Peer: id})
	return true
}

// checkRosterMatches compares every observable of got against the
// reference model, probing Has and Knows over the whole id range the
// fuzz inputs can produce plus one id past each end.
func checkRosterMatches(t *testing.T, step string, got *Roster, want *refRoster) {
	t.Helper()
	if !slices.Equal(got.Members(), want.Members()) {
		t.Fatalf("%s: Members = %v, want %v", step, got.Members(), want.Members())
	}
	if got.Coordinator() != want.Coordinator() {
		t.Fatalf("%s: Coordinator = %d, want %d", step, got.Coordinator(), want.Coordinator())
	}
	if got.Size() != want.Size() {
		t.Fatalf("%s: Size = %d, want %d", step, got.Size(), want.Size())
	}
	if got.Version() != want.Version() {
		t.Fatalf("%s: Version = %d, want %d", step, got.Version(), want.Version())
	}
	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Fatalf("%s: Events = %v, want %v", step, got.Events(), want.Events())
	}
	for id := -129; id <= 128; id++ {
		if got.Has(id) != want.Has(id) {
			t.Fatalf("%s: Has(%d) = %v, want %v", step, id, got.Has(id), want.Has(id))
		}
		if got.Knows(id) != want.Knows(id) {
			t.Fatalf("%s: Knows(%d) = %v, want %v", step, id, got.Knows(id), want.Knows(id))
		}
	}
}

// FuzzRoster drives Roster and the map-based reference model with the
// same initial member list (unsorted, duplicated, negative ids) and the
// same join/evict sequence, and requires identical Members,
// Coordinator, Has, Knows, Size, Version and Events after every step —
// including readmission denial and duplicate evictions. It also writes
// through every Members result to pin that the copy is caller-owned.
//
// Each op is two bytes: the first selects join (even) or evict (odd)
// and, for joins, the announced version (first byte / 2); the second is
// the peer id as an int8.
func FuzzRoster(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint64(0), []byte{0, 7, 1, 1, 0, 1, 1, 1, 14, 9})
	f.Add([]byte{0xff, 0x80, 0x7f, 0xff, 5}, uint64(3), []byte{1, 0x80, 1, 0xff, 0, 0xfe, 200, 4, 1, 5})
	f.Add([]byte{}, uint64(0), []byte{0, 4, 1, 4, 0, 4})
	f.Add([]byte{2, 2, 2}, uint64(1<<40), []byte{1, 2, 0, 2})
	f.Fuzz(func(t *testing.T, initial []byte, version uint64, ops []byte) {
		members := make([]int, len(initial))
		for i, b := range initial {
			members[i] = int(int8(b))
		}
		got := NewRosterAt(members, version)
		want := newRefRoster(members, version)
		if len(members) > 0 {
			members[0]++ // the roster must not alias its input
		}
		checkRosterMatches(t, "initial", got, want)
		for i := 0; i+1 < len(ops); i += 2 {
			kind, id, round := ops[i], int(int8(ops[i+1])), i/2+1
			step := fmt.Sprintf("op %d", i/2)
			if kind%2 == 0 {
				announced := uint64(kind / 2)
				gotErr := got.ApplyJoin(id, round, announced)
				wantErr := want.ApplyJoin(id, round, announced)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: ApplyJoin(%d) err = %v, want %v", step, id, gotErr, wantErr)
				}
				step += fmt.Sprintf(" join %d", id)
			} else {
				if g, w := got.ApplyEvict(id, round), want.ApplyEvict(id, round); g != w {
					t.Fatalf("%s: ApplyEvict(%d) = %v, want %v", step, id, g, w)
				}
				step += fmt.Sprintf(" evict %d", id)
			}
			if m := got.Members(); len(m) > 0 {
				m[0] = 1 << 20 // caller-owned copy: must not reach the roster
			}
			checkRosterMatches(t, step, got, want)
		}
	})
}
