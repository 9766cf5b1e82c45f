// Command heat parallelizes a 2-D heat diffusion solver — a classic
// mesh-structured iterative computation of the kind the thesis' Section 1
// motivates (difference equations, finite element methods) — on the
// iC2mpi platform, demonstrating a user-defined NodeData type beyond plain
// integers. It uses the public ic2mpi package alone.
//
// A hex mesh has a hot spot in one corner and a cold spot in the opposite
// corner, each node relaxing toward the mean of its neighbors in
// fixed-point micro-kelvins (Temp). At its default flags the run is the
// registered scenario "heat". The example verifies the distributed run
// against the sequential reference and reports the temperature field.
//
// Usage:
//
//	go run ./examples/heat [-rows 16] [-cols 16] [-iters 100] [-procs 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"ic2mpi"
)

// Temp is the node data: a temperature in fixed-point micro-kelvins, so
// the distributed and sequential runs compare bitwise.
type Temp int64

// SizeBytes implements ic2mpi.NodeData.
func (t Temp) SizeBytes() int { return 8 }

func main() {
	log.SetFlags(0)
	log.SetPrefix("heat: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("heat", flag.ContinueOnError)
	rows := fs.Int("rows", 16, "mesh rows")
	cols := fs.Int("cols", 16, "mesh columns")
	iters := fs.Int("iters", 100, "relaxation iterations")
	procs := fs.Int("procs", 8, "virtual processors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := solve(*rows, *cols, *iters, *procs)
	if err != nil {
		return err
	}

	// Report the temperature field statistics.
	lo, hi, mean := math.Inf(1), math.Inf(-1), 0.0
	for _, d := range res.FinalData {
		t := float64(d.(Temp)) / 1e6
		mean += t
		lo = math.Min(lo, t)
		hi = math.Max(hi, t)
	}
	mean /= float64(len(res.FinalData))
	fmt.Fprintf(w, "%dx%d hex mesh, %d iterations on %d processors: %.4fs (virtual)\n",
		*rows, *cols, *iters, *procs, res.Elapsed)
	fmt.Fprintf(w, "temperature field: min=%.4f max=%.4f mean=%.4f\n", lo, hi, mean)
	fmt.Fprintln(w, "distributed result verified bit-identical to the sequential reference")
	return nil
}

// solve runs the solver on a rows x cols mesh over procs processors and
// checks its final field against the sequential reference.
func solve(rows, cols, iters, procs int) (*ic2mpi.Result, error) {
	g, err := ic2mpi.HexGrid(rows, cols)
	if err != nil {
		return nil, err
	}
	part, err := ic2mpi.NewMetis(1).Partition(g, nil, procs)
	if err != nil {
		return nil, err
	}
	net, err := ic2mpi.NewNetworkModel("hypercube", procs)
	if err != nil {
		return nil, err
	}
	hot, cold := ic2mpi.NodeID(0), ic2mpi.NodeID(rows*cols-1)
	cfg := ic2mpi.Config{
		Graph:            g,
		Procs:            procs,
		InitialPartition: part,
		InitData: func(id ic2mpi.NodeID) ic2mpi.NodeData {
			switch id {
			case hot:
				return Temp(1_000_000) // 1.0 in micro-units
			case cold:
				return Temp(-1_000_000)
			default:
				return Temp(0)
			}
		},
		// The hot and cold spots hold their temperatures (a Dirichlet
		// boundary); every other node relaxes to its neighbors' mean.
		Node: ic2mpi.Node(func(id ic2mpi.NodeID, iter, sub int, self Temp, nbrs []ic2mpi.Neighbor[Temp]) (Temp, float64) {
			if id == hot || id == cold {
				return self, 0.1e-3
			}
			var sum Temp
			for _, nb := range nbrs {
				sum += nb.Data
			}
			return sum / Temp(len(nbrs)), 0.1e-3
		}),
		Iterations: iters,
		Network:    net,
	}
	res, err := ic2mpi.Run(cfg)
	if err != nil {
		return nil, err
	}
	want, err := ic2mpi.RunSequential(cfg)
	if err != nil {
		return nil, err
	}
	for v := range want {
		if res.FinalData[v] != want[v] {
			return nil, fmt.Errorf("node %d: distributed %v != sequential %v", v, res.FinalData[v], want[v])
		}
	}
	return res, nil
}
