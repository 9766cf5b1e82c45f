package platform

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ic2mpi/internal/graph"
)

// NewHashTable returns a table with the given bucket count, fixed for the
// table's life, as the per-rank reference constructors size theirs.
func NewHashTable(buckets int) (*HashTable, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("platform: hash table needs >= 1 bucket, got %d", buckets)
	}
	return &HashTable{buckets: make([]*hashNode, buckets), slab: make([]hashNode, 0, buckets)}, nil
}

func TestHashTableBasics(t *testing.T) {
	h, err := NewHashTable(10)
	if err != nil {
		t.Fatal(err)
	}
	e := &entry{id: 7, data: IntData(42)}
	if err := h.Insert(e); err != nil {
		t.Fatal(err)
	}
	if got := h.Lookup(7); got != e {
		t.Fatal("Lookup returned wrong entry")
	}
	if h.Lookup(8) != nil {
		t.Fatal("Lookup found absent id")
	}
	if err := h.Insert(&entry{id: 7}); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if got := h.Lookup(7); got != e {
		t.Fatal("a refused duplicate replaced the entry")
	}
}

func TestHashTableRejectsBadConstruction(t *testing.T) {
	if _, err := NewHashTable(0); err == nil {
		t.Fatal("accepted 0 buckets")
	}
	h, _ := NewHashTable(4)
	if err := h.Insert(nil); err == nil {
		t.Fatal("accepted nil entry")
	}
}

func TestHashTableChaining(t *testing.T) {
	// One bucket forces every entry onto a single sorted chain, the
	// structure the thesis uses with HASH_TABLE_LENGTH=10 for 1024 nodes.
	h, err := NewHashTable(1)
	if err != nil {
		t.Fatal(err)
	}
	ids := []graph.NodeID{9, 3, 7, 1, 5, 0, 8, 2, 6, 4}
	for _, id := range ids {
		if err := h.Insert(&entry{id: id, data: IntData(int64(id) * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		e := h.Lookup(id)
		if e == nil || e.data != IntData(int64(id)*10) {
			t.Fatalf("lookup %d failed", id)
		}
	}
	// The single chain must hold every id once, in sorted order.
	var seen []graph.NodeID
	for cur := h.buckets[0]; cur != nil; cur = cur.next {
		seen = append(seen, cur.id)
	}
	if len(seen) != len(ids) {
		t.Fatalf("chain holds %d entries, want %d: %v", len(seen), len(ids), seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i-1] >= seen[i] {
			t.Fatalf("chain not sorted: %v", seen)
		}
	}
}

func TestHashTableSharedEntryPointer(t *testing.T) {
	// Updating an entry through one reference must be visible through the
	// table, as the C original shares node_data pointers.
	h, _ := NewHashTable(8)
	e := &entry{id: 3, data: IntData(1)}
	if err := h.Insert(e); err != nil {
		t.Fatal(err)
	}
	e.data = IntData(99)
	if h.Lookup(3).data != IntData(99) {
		t.Fatal("update not visible through table")
	}
}

// Property: a model-based test against Go's map across random sequences
// of the table's two operations. An entry, once in, must keep answering
// Lookup with the same pointer whatever is inserted around it — what the
// resolved pointers of ownNode rely on.
func TestQuickHashTableMatchesMap(t *testing.T) {
	f := func(seed int64, bucketsRaw uint8) bool {
		buckets := int(bucketsRaw%16) + 1
		h, err := NewHashTable(buckets)
		if err != nil {
			return false
		}
		model := map[graph.NodeID]*entry{}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			id := graph.NodeID(rng.Intn(40))
			switch rng.Intn(2) {
			case 0: // insert
				e := &entry{id: id, data: IntData(int64(op))}
				err := h.Insert(e)
				if _, exists := model[id]; exists {
					if err == nil {
						return false
					}
				} else {
					if err != nil {
						return false
					}
					model[id] = e
				}
			case 1: // lookup
				got := h.Lookup(id)
				if got != model[id] {
					return false
				}
			}
		}
		for id, e := range model {
			if h.Lookup(id) != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHashTableZeroValue holds what a rank without nodes pays for its
// table, nothing, and what its first insert builds: the table
// NewHashTable(1) builds.
func TestHashTableZeroValue(t *testing.T) {
	var h HashTable
	if h.Lookup(3) != nil || h.buckets != nil || h.slab != nil {
		t.Fatal("the zero table holds something")
	}
	want, err := NewHashTable(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []graph.NodeID{5, 2, 9} {
		for _, table := range []*HashTable{&h, want} {
			if err := table.Insert(&entry{id: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	chain := func(h *HashTable) (ids []graph.NodeID) {
		for link := h.buckets[0]; link != nil; link = link.next {
			ids = append(ids, link.id)
		}
		return ids
	}
	if len(h.buckets) != 1 || !slices.Equal(chain(&h), chain(want)) || cap(h.slab) != cap(want.slab) {
		t.Fatalf("the zero table grew to %d buckets, chain %v, %d links; NewHashTable(1) to chain %v, %d links",
			len(h.buckets), chain(&h), cap(h.slab), chain(want), cap(want.slab))
	}
}
