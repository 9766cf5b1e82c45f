package platform

import (
	"fmt"

	"ic2mpi/internal/graph"
)

// HashTable is a faithful reimplementation of the thesis' node-data index:
// "Hash tables are implemented as an array of pointers to sorted linked
// lists which contain the locations for node data. A modulo hash function
// is applied on the node global ID (key) to obtain the location for node
// data." The location of a node's data is its index in the rank's entry
// array: the k-th id inserted is entry k, so the chain links double as the
// entry-to-id map (ID). buildLayout fills every rank's table before the
// ranks launch, from machine-wide arrays of buckets and chain links; task
// migration and checkpoint capture look ids up in it, in amortized O(1).
// Nothing on the exchange path does: the compute loop follows each own
// node's entry indices, and shadow updates are stored through the receive
// plans (rankLayout.planExchange).
//
// Links are found by index, not pointer: a table is copied with its two
// arrays, and one table serves every run of a Layout.
//
// The table only grows: there is no removal. That is load-bearing — every
// own node keeps the entry indices it resolved when it joined the rank
// (ownNode.self, ownNode.nbr), and the plans hold them too, which is sound
// only while no entry can leave the table or be replaced in it
// (checkInvariants compares every resolved and planned index with
// Lookup). A node that migrates away leaves its entry behind: "the
// migrating node now becomes a shadow node for the 'busy' processor".
//
// A table has a bucket per entry it starts with, plus one (the thesis uses
// HASH_TABLE_LENGTH = 10 whatever the graph size), so chains stay short;
// entries that arrive by migration lengthen them. The zero HashTable is
// empty, and its first Insert gives it one bucket.
type HashTable struct {
	buckets []int32    // 1 + the index of each chain's first link; 0 is an empty chain
	links   []hashNode // link k is entry k's
}

// hashNode is one chain link (struct hash_node): the id of the entry at
// the link's own index, and 1 + the index of the next link, 0 at the end.
type hashNode struct {
	id   graph.NodeID
	next int32
}

// slot is the modulo hash function. The thesis computes pow(3, globalID)
// mod HASH_TABLE_LENGTH; a multiplicative mix keeps the same modulo-chain
// structure without the float64 overflow the C code suffers for large IDs.
func (h *HashTable) slot(id graph.NodeID) int {
	x := uint64(id) * 2654435761 // Knuth multiplicative hash
	return int(x % uint64(len(h.buckets)))
}

// Insert adds id as the next entry and returns its index, the entry count
// before the call. Inserting an id already present is an error — the thesis
// carefully guards against double-inserting shadow nodes shared by several
// peripheral nodes (InsertShadowsIntoHashTable's insert_flag), and this
// implementation turns that guard into an invariant.
func (h *HashTable) Insert(id graph.NodeID) (int32, error) {
	if id < 0 {
		return -1, fmt.Errorf("platform: inserting negative node id %d", id)
	}
	if h.Lookup(id) >= 0 {
		return -1, fmt.Errorf("platform: node %d already in hash table", id)
	}
	if len(h.buckets) == 0 {
		h.buckets = make([]int32, 1)
	}
	h.links = append(h.links, hashNode{id: id})
	k := int32(len(h.links) - 1)
	h.link(k)
	return k, nil
}

// link threads link k, whose id is not yet in the table, into its chain,
// in place: chains stay sorted by id ("sorted linked lists").
func (h *HashTable) link(k int32) {
	id := h.links[k].id
	p := &h.buckets[h.slot(id)]
	for *p != 0 && h.links[*p-1].id < id {
		p = &h.links[*p-1].next
	}
	h.links[k].next, *p = *p, k+1
}

// Lookup returns the index of id's entry, or -1 when absent.
func (h *HashTable) Lookup(id graph.NodeID) int32 {
	if len(h.buckets) == 0 {
		return -1
	}
	for cur := h.buckets[h.slot(id)]; cur != 0 && h.links[cur-1].id <= id; cur = h.links[cur-1].next {
		if h.links[cur-1].id == id {
			return cur - 1
		}
	}
	return -1
}

// ID returns the id of entry k.
func (h *HashTable) ID(k int32) graph.NodeID { return h.links[k].id }
