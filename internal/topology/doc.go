// Package topology models processor network graphs: the hypercube of the
// paper's SGI Origin 2000, regular meshes, fat trees and heterogeneous
// grids. A Network is per-processor speeds plus one link-cost function,
// Link, read through Cost — closed-form for the shipped machines at every
// processor count, and `func(p, q int) float64 { return m[p][q] }` for a
// graph given as a table. PaGrid consumes these networks when mapping
// application graphs; the BF partitioner uses the gray-code
// mesh-to-hypercube embedding of [DMP98]; the platform scales message
// wire cost by Cost and node computation by Speed when a Network is
// attached to a run (the processor-network-graph plug-in point in the
// package map of docs/architecture.md).
package topology
