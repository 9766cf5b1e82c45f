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
	return &HashTable{buckets: make([]int32, buckets), links: make([]hashNode, 0, buckets)}, nil
}

// chain returns the ids on bucket b's chain, in chain order.
func chain(h *HashTable, b int) (ids []graph.NodeID) {
	for link := h.buckets[b]; link != 0; link = h.links[link-1].next {
		ids = append(ids, h.links[link-1].id)
	}
	return ids
}

func TestHashTableBasics(t *testing.T) {
	h, err := NewHashTable(10)
	if err != nil {
		t.Fatal(err)
	}
	k, err := h.Insert(7)
	if err != nil || k != 0 {
		t.Fatalf("first insert returned (%d, %v), want entry 0", k, err)
	}
	if got := h.Lookup(7); got != k || h.ID(k) != 7 {
		t.Fatal("Lookup returned wrong entry")
	}
	if h.Lookup(8) != -1 {
		t.Fatal("Lookup found absent id")
	}
	if _, err := h.Insert(7); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if got := h.Lookup(7); got != k || len(h.links) != 1 {
		t.Fatal("a refused duplicate replaced the entry or added one")
	}
}

func TestHashTableRejectsBadConstruction(t *testing.T) {
	if _, err := NewHashTable(0); err == nil {
		t.Fatal("accepted 0 buckets")
	}
	h, _ := NewHashTable(4)
	if _, err := h.Insert(-1); err == nil {
		t.Fatal("accepted a negative id")
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
		if _, err := h.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		if k := h.Lookup(id); k != int32(i) {
			t.Fatalf("lookup %d = entry %d, want its insertion index %d", id, k, i)
		}
	}
	// The single chain must hold every id once, in sorted order.
	seen := chain(h, 0)
	if len(seen) != len(ids) {
		t.Fatalf("chain holds %d entries, want %d: %v", len(seen), len(ids), seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i-1] >= seen[i] {
			t.Fatalf("chain not sorted: %v", seen)
		}
	}
}

// TestHashTableSharedEntryPointer: an entry's location never moves. The C
// original shares node_data pointers between the lists and the buckets;
// here the lists hold entry indices, so the index Insert returns must keep
// answering Lookup whatever is inserted after it.
func TestHashTableSharedEntryPointer(t *testing.T) {
	h, _ := NewHashTable(2)
	k, _ := h.Insert(3)
	for id := graph.NodeID(10); id < 40; id++ {
		if _, err := h.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if h.Lookup(3) != k || h.ID(k) != 3 {
		t.Fatal("entry 3 moved under later inserts")
	}
	if len(h.links) != 31 {
		t.Fatalf("%d entries after 31 inserts", len(h.links))
	}
}

// Property: a model-based test against Go's map across random sequences
// of the table's two operations. An entry, once in, must keep answering
// Lookup with the same index whatever is inserted around it — what the
// resolved indices of ownNode rely on.
func TestQuickHashTableMatchesMap(t *testing.T) {
	f := func(seed int64, bucketsRaw uint8) bool {
		buckets := int(bucketsRaw%16) + 1
		h, err := NewHashTable(buckets)
		if err != nil {
			return false
		}
		model := map[graph.NodeID]int32{}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			id := graph.NodeID(rng.Intn(40))
			switch rng.Intn(2) {
			case 0: // insert
				k, err := h.Insert(id)
				if _, exists := model[id]; exists {
					if err == nil {
						return false
					}
				} else {
					if err != nil || k != int32(len(model)) {
						return false
					}
					model[id] = k
				}
			case 1: // lookup
				want, ok := model[id]
				if !ok {
					want = -1
				}
				if h.Lookup(id) != want {
					return false
				}
			}
		}
		for id, k := range model {
			if h.Lookup(id) != k || h.ID(k) != id {
				return false
			}
		}
		return len(h.links) == len(model)
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
	if h.Lookup(3) != -1 || h.buckets != nil || h.links != nil {
		t.Fatal("the zero table holds something")
	}
	want, err := NewHashTable(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []graph.NodeID{5, 2, 9} {
		for _, table := range []*HashTable{&h, want} {
			if _, err := table.Insert(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(h.buckets) != 1 || !slices.Equal(chain(&h, 0), chain(want, 0)) || len(h.links) != len(want.links) {
		t.Fatalf("the zero table grew to %d buckets, chain %v, %d entries; NewHashTable(1) to chain %v, %d entries",
			len(h.buckets), chain(&h, 0), len(h.links), chain(want, 0), len(want.links))
	}
}
