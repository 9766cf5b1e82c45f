package platform

import (
	"fmt"

	"ic2mpi/internal/graph"
)

// tagShadow carries shadow-node updates; one message per neighboring
// processor per exchange, tagged with the sub-phase so multi-sub-phase
// applications (battlefield) never cross-match rounds.
func tagShadow(sub int) int { return 100 + sub }

// computeAndCommunicate runs one compute+communicate round (Figures 8 and
// 8a). It updates every owned node with the user's node function, packs
// updated peripheral data into per-destination buffers, exchanges shadow
// updates with neighboring processors, and applies received updates.
func (s *rankState) computeAndCommunicate(iter, sub int) error {
	if s.cfg.Overlap {
		return s.roundOverlapped(iter, sub)
	}
	return s.roundBasic(iter, sub)
}

// roundBasic is Fig. 8: internal nodes, then peripheral nodes (packing as
// they complete), then MPI_Isend/MPI_Recv of the buffers.
func (s *rankState) roundBasic(iter, sub int) error {
	s.nextBuffers()
	// Compute over nodes: internal first, then peripheral.
	for _, node := range s.internal {
		if err := s.computeNode(node, iter, sub); err != nil {
			return err
		}
	}
	for _, node := range s.peripheral {
		if err := s.computeNode(node, iter, sub); err != nil {
			return err
		}
	}
	s.flipMostRecent()
	// Communicate shadows.
	if err := s.sendBuffers(sub); err != nil {
		return err
	}
	return s.recvShadows(sub)
}

// roundOverlapped is Fig. 8a: peripheral nodes first, dispatch shadows,
// compute internal nodes while communication is in flight, then receive
// and unpack. The thesis posts MPI_Irecv before the internal nodes and
// MPI_Waits after them; here a receive completes at max(now, arrival)
// wherever it was posted, so posting late costs nothing and the blocking
// receive of Fig. 8 serves both variants.
func (s *rankState) roundOverlapped(iter, sub int) error {
	s.nextBuffers()
	for _, node := range s.peripheral {
		if err := s.computeNode(node, iter, sub); err != nil {
			return err
		}
	}
	if err := s.sendBuffers(sub); err != nil {
		return err
	}
	// Remainder of the computation proceeds while communication continues.
	for _, node := range s.internal {
		if err := s.computeNode(node, iter, sub); err != nil {
			return err
		}
	}
	s.flipMostRecent()
	return s.recvShadows(sub)
}

// nextBuffers starts an exchange: it moves s.gen to the other generation of
// peer.pool and empties that generation of every peer's send buffer, sized
// from peer.send ("the data structure chosen for the communication buffers
// gives optimum memory usage"). Once capacities have warmed up an exchange
// allocates nothing, under Fig. 8 and Fig. 8a alike; the peer.pool comment
// in state.go says why a two-generation gap is sufficient.
func (s *rankState) nextBuffers() {
	s.gen ^= 1
	for i := range s.peers {
		pe := &s.peers[i]
		if cap(pe.pool[s.gen]) < pe.send {
			pe.pool[s.gen] = make([]shadowUpdate, 0, pe.send)
		}
		pe.pool[s.gen] = pe.pool[s.gen][:0]
	}
}

// computeNode forms the node+neighbors list, invokes the node function,
// stores the new data in most_recent, and (for peripheral nodes) packs the
// update into the outgoing buffers. Time is attributed to the compute and
// overhead phases exactly as Figures 21-22 split them.
func (s *rankState) computeNode(node *ownNode, iter, sub int) error {
	e := node.self
	// Computation overhead: form the list of the node and its neighbors, in
	// the one list every call on this rank recycles.
	t0 := s.comm.Wtime()
	if cap(s.nbrScratch) < len(node.nbr) {
		s.nbrScratch = make([]Neighbor, len(node.nbr))
	}
	neighbors := s.nbrScratch[:len(node.nbr)]
	for i, nb := range node.nbr {
		neighbors[i] = Neighbor{ID: nb.id, Data: nb.data}
	}
	s.comm.Charge(float64(len(neighbors)+1) * listPerNeighbor)
	t1 := s.comm.Wtime()
	s.phase[PhaseComputeOverhead] += t1 - t0

	// The actual node computation (the grain), scaled by this processor's
	// relative speed when running on a heterogeneous network.
	newData, cost := s.cfg.Node(node.id, iter, sub, e.data, neighbors)
	if newData == nil {
		return fmt.Errorf("platform: node function returned nil data for node %d", node.id)
	}
	if cost < 0 {
		return fmt.Errorf("platform: node function returned negative cost %g for node %d", cost, node.id)
	}
	if s.speed != 1 {
		cost *= s.speed
	}
	s.comm.Charge(cost)
	t2 := s.comm.Wtime()
	s.phase[PhaseCompute] += t2 - t1
	if sub == 0 {
		node.lastCost = 0
	}
	node.lastCost += t2 - t1

	// Update the data node list (most_recent_data).
	e.mostRecent = newData
	s.comm.Charge(updatePerNode)
	t3 := s.comm.Wtime()
	s.phase[PhaseComputeOverhead] += t3 - t2

	// Pack updated peripheral node data into communication buffers, one
	// per destination of the node's send plan.
	if node.peripheral {
		for _, pool := range node.out {
			buf := &pool[s.gen]
			*buf = append(*buf, shadowUpdate{id: node.id, data: newData})
			s.comm.Charge(packPerNode)
		}
		s.phase[PhaseCommOverhead] += s.comm.Wtime() - t3
	}
	return nil
}

// flipMostRecent promotes most_recent_data to data for every owned node
// ("update data to most recent data before the next iteration").
func (s *rankState) flipMostRecent() {
	t0 := s.comm.Wtime()
	for _, node := range s.internal {
		node.self.data = node.self.mostRecent
	}
	for _, node := range s.peripheral {
		node.self.data = node.self.mostRecent
	}
	s.comm.Charge(float64(s.numOwned()) * updatePerNode)
	s.phase[PhaseComputeOverhead] += s.comm.Wtime() - t0
}

// sendBuffers dispatches one nonblocking send per peer, in ascending
// destination order. The receiver checks each buffer against its receive
// plan.
func (s *rankState) sendBuffers(sub int) error {
	t0 := s.comm.Wtime()
	for _, pe := range s.peers {
		if err := s.comm.Isend(pe.proc, tagShadow(sub), &pe.pool[s.gen], updateBytes(pe.pool[s.gen])); err != nil {
			return err
		}
	}
	s.phase[PhaseCommunicate] += s.comm.Wtime() - t0
	return nil
}

// recvShadows receives one buffer from every peer, in ascending source
// order, and stores the k-th update in the k-th entry of the peer's
// receive plan. Checking the length and each id against the plan refuses
// an update out of order and one for a node the peer does not own.
func (s *rankState) recvShadows(sub int) error {
	for _, pe := range s.peers {
		t0 := s.comm.Wtime()
		payload, err := s.comm.Recv(pe.proc, tagShadow(sub))
		if err != nil {
			return err
		}
		t1 := s.comm.Wtime()
		s.phase[PhaseCommunicate] += t1 - t0

		sent, ok := payload.(*[]shadowUpdate)
		if !ok {
			return fmt.Errorf("platform: rank %d: unexpected payload %T from proc %d", s.me, payload, pe.proc)
		}
		buf := *sent
		if len(buf) != len(pe.in) {
			return fmt.Errorf("platform: rank %d received %d updates from proc %d, expected %d",
				s.me, len(buf), pe.proc, len(pe.in))
		}
		for k, u := range buf {
			e := pe.in[k]
			if e.id != u.id {
				return fmt.Errorf("platform: rank %d: update %d from proc %d is for node %d, expected node %d",
					s.me, k, pe.proc, u.id, e.id)
			}
			e.data = u.data
			e.mostRecent = u.data
			s.comm.Charge(unpackPerNode)
		}
		s.phase[PhaseCommOverhead] += s.comm.Wtime() - t1
	}
	return nil
}

// gatherFinalData assembles every node's final data at rank 0. Each rank
// sends (id, data) pairs for the nodes it owns.
func (s *rankState) gatherFinalData() ([]NodeData, error) {
	own := make([]shadowUpdate, 0, s.numOwned())
	for _, node := range s.internal {
		own = append(own, shadowUpdate{id: node.id, data: node.self.data})
	}
	for _, node := range s.peripheral {
		own = append(own, shadowUpdate{id: node.id, data: node.self.data})
	}
	all, err := s.comm.Gather(0, own, updateBytes(own))
	if err != nil {
		return nil, err
	}
	if s.me != 0 {
		return nil, nil
	}
	out := make([]NodeData, s.cfg.Graph.NumVertices())
	for p, payload := range all {
		buf := payload.([]shadowUpdate)
		for _, u := range buf {
			if out[u.id] != nil {
				return nil, fmt.Errorf("platform: node %d reported by two owners", u.id)
			}
			if s.owner[u.id] != p {
				return nil, fmt.Errorf("platform: proc %d reported node %d owned by %d", p, u.id, s.owner[u.id])
			}
			out[u.id] = u.data
		}
	}
	for v, d := range out {
		if d == nil {
			return nil, fmt.Errorf("platform: no owner reported node %d", graph.NodeID(v))
		}
	}
	return out, nil
}
