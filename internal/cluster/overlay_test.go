package cluster

import (
	"slices"
	"testing"
)

// TestAggTreeChildrenAppendDoesNotAlias pins the aliasing contract of
// the shared member slice: children returns a subslice of the roster's
// view, and drainJoinQueue appends pending joiners to it. The capped
// capacity must make that append copy, leaving the roster and every
// other peer's children untouched.
func TestAggTreeChildrenAppendDoesNotAlias(t *testing.T) {
	ids := make([]int, 40)
	for i := range ids {
		ids[i] = 3 * i
	}
	rost := NewRoster(ids)
	rost.ApplyEvict(9, 1) // a churned view, like a live deployment's
	tree := newAggTree(rost.view(), 3)
	members := rost.Members()
	kids := make(map[int][]int, len(members))
	for _, id := range members {
		kids[id] = slices.Clone(tree.children(id))
	}
	for _, id := range members {
		grown := append(tree.children(id), 1000, 1001, 1002)
		if len(grown) < 3 {
			t.Fatalf("append to children(%d) lost elements: %v", id, grown)
		}
	}
	if got := rost.Members(); !slices.Equal(got, members) {
		t.Fatalf("roster changed by appends to children: %v, want %v", got, members)
	}
	if !slices.Equal(tree.members, members) {
		t.Fatalf("tree layout changed by appends to children: %v, want %v", tree.members, members)
	}
	for _, id := range members {
		if got := tree.children(id); !slices.Equal(got, kids[id]) {
			t.Errorf("children(%d) = %v after appends, want %v", id, got, kids[id])
		}
	}
}

// Sinks keep the allocation probes below from being optimized away.
var (
	sinkInt   int
	sinkBool  bool
	sinkSlice []int
)

// TestRosterAndTreeQueriesDoNotAllocate pins the per-round cost of the
// elastic runtime's membership queries on a 4096-member view: the
// coordinator, liveness and knowledge checks, and the overlay's parent
// and children lookups must not allocate, so a per-round copy of the
// member set cannot come back unnoticed.
func TestRosterAndTreeQueriesDoNotAllocate(t *testing.T) {
	const n = 4096
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	rost := NewRoster(ids)
	rost.ApplyEvict(17, 1)
	if err := rost.ApplyJoin(n, 2, 0); err != nil {
		t.Fatal(err)
	}
	tree := newAggTree(rost.view(), DefaultFanout)
	const id = 1234
	probes := []struct {
		name string
		fn   func()
	}{
		{"Coordinator", func() { sinkInt = rost.Coordinator() }},
		{"Has", func() { sinkBool = rost.Has(id) }},
		{"Knows", func() { sinkBool = rost.Knows(17) }},
		{"parent", func() { sinkInt, sinkBool = tree.parent(id) }},
		{"children", func() { sinkSlice = tree.children(id) }},
	}
	for _, p := range probes {
		if allocs := testing.AllocsPerRun(100, p.fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call on a %d-member roster, want 0", p.name, allocs, n)
		}
	}
}
