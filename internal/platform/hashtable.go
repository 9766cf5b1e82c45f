package platform

import (
	"fmt"

	"ic2mpi/internal/graph"
)

// HashTable is a faithful reimplementation of the thesis' node-data index:
// "Hash tables are implemented as an array of pointers to sorted linked
// lists which contain the locations for node data. A modulo hash function
// is applied on the node global ID (key) to obtain the location for node
// data." buildRanks fills every rank's table before the ranks launch, from
// machine-wide arrays of buckets and chain links; task migration and
// checkpoint capture look ids up in it, in amortized O(1). Nothing on the
// exchange path does: the compute loop follows each own node's entry
// pointers, and shadow updates are stored through the receive plans
// (rankState.planExchange).
//
// The table stores *entry pointers so that updating an entry through the
// table is visible to every list that references it, exactly as the C
// original shares node_data pointers between the data node list, the own
// node lists and the hash buckets.
//
// The table only grows: there is no removal. That is load-bearing — every
// own node keeps the *entry pointers it resolved when it joined the rank
// (ownNode.self, ownNode.nbr), and the plans hold them too, which is sound
// only while no entry can leave the table or be replaced in it
// (checkInvariants compares every resolved and planned pointer with
// Lookup). A node that migrates away leaves its entry behind: "the
// migrating node now becomes a shadow node for the 'busy' processor".
type HashTable struct {
	buckets []*hashNode
	slab    []hashNode // the first len(buckets) chain links; a link never moves
}

// hashNode is one chain link (struct hash_node).
type hashNode struct {
	id   graph.NodeID
	data *entry
	next *hashNode
}

// entry is one data-node-list element (struct node_data): the current data
// and the most recent data, which must be kept separate because "the old
// data might still be required for the computation purposes of the
// neighboring nodes".
type entry struct {
	id         graph.NodeID
	data       NodeData
	mostRecent NodeData
	own        *ownNode // the node's record while this rank owns it; nil for a shadow
}

// NewHashTable returns a table with the given bucket count, fixed for the
// table's life. The thesis uses HASH_TABLE_LENGTH = 10 regardless of graph
// size; a rank here asks for one bucket per entry it starts with (own nodes
// plus shadows, not a share of the whole graph), so chains stay short, and
// entries that arrive by migration lengthen them — the chaining behaviour is
// the thesis'.
func NewHashTable(buckets int) (*HashTable, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("platform: hash table needs >= 1 bucket, got %d", buckets)
	}
	return &HashTable{buckets: make([]*hashNode, buckets), slab: make([]hashNode, 0, buckets)}, nil
}

// slot is the modulo hash function. The thesis computes pow(3, globalID)
// mod HASH_TABLE_LENGTH; a multiplicative mix keeps the same modulo-chain
// structure without the float64 overflow the C code suffers for large IDs.
func (h *HashTable) slot(id graph.NodeID) int {
	x := uint64(id) * 2654435761 // Knuth multiplicative hash
	return int(x % uint64(len(h.buckets)))
}

// Insert adds an entry for id. Inserting an id that is already present is
// an error — the thesis carefully guards against double-inserting shadow
// nodes shared by several peripheral nodes (InsertShadowsIntoHashTable's
// insert_flag), and this implementation turns that guard into an invariant.
func (h *HashTable) Insert(e *entry) error {
	if e == nil {
		return fmt.Errorf("platform: inserting nil entry")
	}
	s := h.slot(e.id)
	// Keep chains sorted by id ("sorted linked lists"), insert in place.
	var prev *hashNode
	cur := h.buckets[s]
	for cur != nil && cur.id < e.id {
		prev, cur = cur, cur.next
	}
	if cur != nil && cur.id == e.id {
		return fmt.Errorf("platform: node %d already in hash table", e.id)
	}
	if len(h.slab) == cap(h.slab) {
		h.slab = make([]hashNode, 0, 1) // the full slab's links stay put
	}
	h.slab = append(h.slab, hashNode{id: e.id, data: e, next: cur})
	n := &h.slab[len(h.slab)-1]
	if prev == nil {
		h.buckets[s] = n
	} else {
		prev.next = n
	}
	return nil
}

// Lookup returns the entry for id, or nil when absent.
func (h *HashTable) Lookup(id graph.NodeID) *entry {
	for cur := h.buckets[h.slot(id)]; cur != nil && cur.id <= id; cur = cur.next {
		if cur.id == id {
			return cur.data
		}
	}
	return nil
}
