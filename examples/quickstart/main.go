// Command quickstart parallelizes the thesis' introductory example — an
// iterative neighbor-averaging computation on a 64-node hexagonal grid —
// across 1..16 virtual processors and prints the speedup curve, without a
// line of message-passing code. It uses the public ic2mpi package alone:
// the three plug-ins (graph, node data, node function), a static
// partitioner and the paper's hypercube interconnect.
//
// The same workload is the registered scenario "hex64-fine", swept from
// the command line with
//
//	go run ./cmd/experiments -scenario hex64-fine
//
// Usage:
//
//	go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"ic2mpi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	if err := flag.NewFlagSet("quickstart", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	rows, err := speedup()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "64-node hexagonal grid, 20 iterations, fine grain (0.3 ms)")
	fmt.Fprintf(w, "%8s %12s %10s %10s\n", "procs", "time (s)", "speedup", "edge cut")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.4f %10.2f %10d\n", r.procs, r.elapsed, rows[0].elapsed/r.elapsed, r.edgeCut)
	}
	fmt.Fprintln(w, "\nEvery run computes bit-identical node data (verified against")
	fmt.Fprintln(w, "a sequential reference by the platform's test suite).")
	return nil
}

// row is one processor count's run.
type row struct {
	procs   int
	elapsed float64 // virtual seconds
	edgeCut int
}

// speedup runs the workload on 1, 2, 4, 8 and 16 processors.
func speedup() ([]row, error) {
	// Plug-in 1: the application program graph.
	g, err := ic2mpi.HexGrid(8, 8)
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, procs := range []int{1, 2, 4, 8, 16} {
		part, err := ic2mpi.NewMetis(1).Partition(g, nil, procs)
		if err != nil {
			return nil, err
		}
		q, err := ic2mpi.EvaluatePartition(g, part, procs)
		if err != nil {
			return nil, err
		}
		net, err := ic2mpi.NewNetworkModel("hypercube", procs)
		if err != nil {
			return nil, err
		}
		res, err := ic2mpi.Run(ic2mpi.Config{
			Graph:            g,
			Procs:            procs,
			InitialPartition: part,
			// Plug-in 2: the node data, the thesis' 1-based global ID.
			InitData: func(id ic2mpi.NodeID) ic2mpi.NodeData { return ic2mpi.IntData(id + 1) },
			// Plug-in 3: the node function, the average of the node's and
			// its neighbors' data at a fine grain of 0.3 ms per node.
			Node: ic2mpi.Node(func(id ic2mpi.NodeID, iter, sub int, self ic2mpi.IntData, nbrs []ic2mpi.Neighbor[ic2mpi.IntData]) (ic2mpi.IntData, float64) {
				sum := self
				for _, nb := range nbrs {
					sum += nb.Data
				}
				return sum / ic2mpi.IntData(len(nbrs)+1), 0.3e-3
			}),
			Iterations: 20,
			Network:    net,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{procs: procs, elapsed: res.Elapsed, edgeCut: q.EdgeCut})
	}
	return rows, nil
}
