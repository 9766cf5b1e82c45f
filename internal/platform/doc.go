// Package platform implements the iC2mpi platform core: the three-phase
// architecture of Section 3/4 of the thesis.
//
//   - Initialization: a static partitioner's node-to-processor mapping is
//     expanded into per-processor internal and peripheral node lists, a
//     data store holding own and shadow node data, and a hash table index
//     (Fig. 7).
//   - Computation & communication: per iteration, the user's node function
//     is invoked over internal then peripheral nodes with a list of the
//     node's data followed by its neighbors' data; updated peripheral data
//     is packed into per-neighbor communication buffers and exchanged with
//     nonblocking sends (Fig. 8), optionally overlapping internal-node
//     computation with communication (Fig. 8a).
//   - Load balancing & task migration: a pluggable balancer periodically
//     inspects a weighted processor graph and produces busy/idle pairs;
//     the platform migrates one task per pair, updating node lists, hash
//     tables and shadow bookkeeping incrementally (Section 4.3).
//
// The user plugs in exactly what the thesis describes: the application
// program graph, the node data structure, and the node computation
// function. Config.Host attaches a telemetry recorder (internal/trace),
// checkpoints or a resume snapshot without perturbing the timeline.
//
// docs/architecture.md maps this package's files onto the thesis figures
// and documents the virtual-clock determinism contract the run loop must
// preserve.
package platform
