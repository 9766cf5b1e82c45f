package mpi

import "fmt"

// Collective operations, implemented on top of point-to-point messaging
// with binomial trees so that their virtual cost emerges naturally from the
// cost model (log2(P) message steps), matching the behaviour of MPI
// implementations on the hypercube interconnect the paper targets.
//
// Every collective uses an internal tag far from user tag space; user code
// must use non-negative tags below collectiveTagBase.

const (
	collectiveTagBase = 1 << 24
	tagBcast          = collectiveTagBase + iota
	tagGather
)

// relRank maps rank into a tree rooted at root, and back.
func relRank(rank, root, size int) int { return (rank - root + size) % size }
func absRank(rel, root, size int) int  { return (rel + root) % size }
func validRoot(root, size int) error {
	if root < 0 || root >= size {
		return fmt.Errorf("mpi: invalid root %d for size %d", root, size)
	}
	return nil
}

// Bcast broadcasts payload from root to every rank along a binomial tree
// and returns the value each rank holds afterwards. bytes sizes the message
// for the cost model.
func (c *Comm) Bcast(root int, payload any, bytes int) (any, error) {
	size := c.Size()
	if err := validRoot(root, size); err != nil {
		return nil, err
	}
	if size == 1 {
		return payload, nil
	}
	rel := relRank(c.rank, root, size)
	// Receive from parent unless root.
	if rel != 0 {
		// Parent clears the lowest set bit of rel.
		parent := rel & (rel - 1)
		p, err := c.Recv(absRank(parent, root, size), tagBcast)
		if err != nil {
			return nil, err
		}
		payload = p
	}
	// Forward to children: set bits above the lowest set bit of rel.
	low := rel & (-rel)
	if rel == 0 {
		low = size // root sends to all powers of two below size
	}
	for mask := 1; mask < low && rel+mask < size; mask <<= 1 {
		if err := c.Isend(absRank(rel+mask, root, size), tagBcast, payload, bytes); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// Gather collects one payload from every rank at root, returned as a slice
// indexed by rank. Non-root ranks receive nil. Implemented as direct sends
// to the root, which matches the thesis' load balancer (rank 0 receives a
// timing value from each rank with its rank as the tag).
func (c *Comm) Gather(root int, payload any, bytes int) ([]any, error) {
	size := c.Size()
	if err := validRoot(root, size); err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, c.Isend(root, tagGather, payload, bytes)
	}
	out := make([]any, size)
	out[root] = payload
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		p, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, err
		}
		out[r] = p
	}
	return out, nil
}

// Allgather collects one payload from every rank at every rank. Implemented
// as Gather followed by Bcast of the assembled slice.
func (c *Comm) Allgather(payload any, bytes int) ([]any, error) {
	all, err := c.Gather(0, payload, bytes)
	if err != nil {
		return nil, err
	}
	v, err := c.Bcast(0, all, bytes*c.Size())
	if err != nil {
		return nil, err
	}
	return v.([]any), nil
}

// BcastInts broadcasts an []int from root; all ranks return an identical
// slice (receivers get the sender's slice by reference and must treat it as
// read-only, as with all payloads in this runtime).
func (c *Comm) BcastInts(root int, xs []int) ([]int, error) {
	v, err := c.Bcast(root, xs, 8*len(xs))
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	return v.([]int), nil
}

// GatherFloat64 gathers one float64 per rank at root into a []float64
// indexed by rank; non-root ranks receive nil.
func (c *Comm) GatherFloat64(root int, x float64) ([]float64, error) {
	all, err := c.Gather(root, x, 8)
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	out := make([]float64, len(all))
	for i, v := range all {
		out[i] = v.(float64)
	}
	return out, nil
}

// GatherInts gathers an []int per rank at root into a [][]int indexed by
// rank; non-root ranks receive nil. This mirrors the thesis' gathering of
// per-processor communication-buffer-size vectors when building the
// processor graph for the load balancer.
func (c *Comm) GatherInts(root int, xs []int) ([][]int, error) {
	all, err := c.Gather(root, xs, 8*len(xs))
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	out := make([][]int, len(all))
	for i, v := range all {
		if v != nil {
			out[i] = v.([]int)
		}
	}
	return out, nil
}
