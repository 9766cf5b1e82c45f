// Command ic2mpi is the platform's CLI, the counterpart of the thesis'
// "mpirun -np num_procs MPIFramework $program_graph": it loads an
// application program graph in Chaco format, partitions it with a chosen
// static partitioner, runs the generic neighbor-averaging iterative
// computation across virtual processors (optionally with dynamic load
// balancing) and reports times, phase overheads and partition quality.
//
// Usage:
//
//	ic2mpi -np 8 -graph prog.graph [-partitioner metis] [-iters 20]
//	       [-grain 0.0003] [-dynamic] [-overlap] [-verify]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"ic2mpi"
	"ic2mpi/internal/partition"
	"ic2mpi/internal/workload"
)

// options are the command's flag values.
type options struct {
	np, iters, every         int
	graph, partitioner       string
	grain                    float64
	dynamic, overlap, verify bool
}

// parseFlags defines the command's flags on fs, parses args and checks
// the values with checkFlags.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.IntVar(&o.np, "np", 4, "number of virtual processors")
	fs.StringVar(&o.graph, "graph", "", "application program graph in Chaco format (required)")
	fs.StringVar(&o.partitioner, "partitioner", "metis", "static partitioner: "+strings.Join(partition.Names(), ", ")+", block, roundrobin")
	fs.IntVar(&o.iters, "iters", 20, "iterations")
	fs.Float64Var(&o.grain, "grain", 0.3e-3, "per-node grain size in seconds (paper: 0.0003 fine, 0.003 coarse)")
	fs.BoolVar(&o.dynamic, "dynamic", false, "enable the dynamic load balancer")
	fs.IntVar(&o.every, "every", 10, "load balancing period in iterations (with -dynamic)")
	fs.BoolVar(&o.overlap, "overlap", false, "overlap computation with communication (Fig. 8a variant)")
	fs.BoolVar(&o.verify, "verify", false, "verify the distributed result against a sequential reference run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, checkFlags(fs, o)
}

// checkFlags refuses, before the graph is read, the values that would
// fail only after partitioning or once the run has started (-np below 1,
// -iters or -grain below 0) and those that reach nothing: -every without
// -dynamic, and an -every below 1, which the platform would replace by
// its default of 10.
func checkFlags(fs *flag.FlagSet, o options) error {
	everySet := false
	fs.Visit(func(f *flag.Flag) { everySet = everySet || f.Name == "every" })
	switch {
	case o.np < 1:
		return fmt.Errorf("-np must be >= 1, got %d", o.np)
	case o.iters < 0:
		return fmt.Errorf("-iters must be >= 0, got %d", o.iters)
	case !(o.grain >= 0): // NaN too
		return fmt.Errorf("-grain must be >= 0, got %g", o.grain)
	case everySet && !o.dynamic:
		return errors.New("-every requires -dynamic (it is the load-balancing period)")
	case o.every < 1:
		return fmt.Errorf("-every must be >= 1, got %d", o.every)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ic2mpi: ")

	fs := flag.NewFlagSet("ic2mpi", flag.ExitOnError)
	o, err := parseFlags(fs, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if o.graph == "" {
		fs.Usage()
		os.Exit(2)
	}
	if err := execute(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// execute loads, partitions and runs o's graph, reporting on stdout.
func execute(o options, stdout io.Writer) error {
	f, err := os.Open(o.graph)
	if err != nil {
		return err
	}
	g, err := ic2mpi.ReadChaco(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %d nodes, %d edges, max degree %d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())

	pt, net, err := pickPartitioner(o.partitioner, o.np)
	if err != nil {
		return err
	}
	part, err := pt.Partition(g, net, o.np)
	if err != nil {
		return err
	}
	q, err := ic2mpi.EvaluatePartition(g, part, o.np)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "partitioner: %s  edge-cut %d  imbalance %.3f  weights %v\n",
		pt.Name(), q.EdgeCut, q.Imbalance, q.PartWeights)

	cfg := ic2mpi.Config{
		Graph:            g,
		Procs:            o.np,
		InitialPartition: part,
		InitData:         workload.InitID,
		Node:             workload.Averaging(workload.UniformGrain(o.grain)),
		Iterations:       o.iters,
		Overlap:          o.overlap,
		BalanceEvery:     o.every,
	}
	if o.dynamic {
		if cfg.Balancer, err = ic2mpi.NewBalancer("centralized", "", o.np); err != nil {
			return err
		}
	}
	res, err := ic2mpi.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nTime Elapsed = %f\n\n", res.Elapsed)
	fmt.Fprintf(stdout, "%-34s %s\n", "phase", "max time (s)")
	for ph := 0; ph < ic2mpi.NumPhases; ph++ {
		fmt.Fprintf(stdout, "%-34s %.6f\n", ic2mpi.Phase(ph), res.MaxPhase(ic2mpi.Phase(ph)))
	}
	if o.dynamic {
		fmt.Fprintf(stdout, "\ntask migrations: %d\n", res.Migrations)
	}
	if o.verify {
		want, err := ic2mpi.RunSequential(cfg)
		if err != nil {
			return err
		}
		for v := range want {
			if res.FinalData[v] != want[v] {
				return fmt.Errorf("VERIFY FAILED at node %d: %v != %v", v, res.FinalData[v], want[v])
			}
		}
		fmt.Fprintln(stdout, "verify: distributed result matches the sequential reference")
	}
	return nil
}

// pickPartitioner resolves -partitioner: a registered partitioner or one of
// the two trivial baselines, plus the processor network it maps onto.
func pickPartitioner(name string, np int) (ic2mpi.Partitioner, *ic2mpi.Network, error) {
	switch name {
	case "block":
		return partition.Block{}, nil, nil
	case "roundrobin":
		return partition.RoundRobin{}, nil, nil
	}
	pt, err := partition.New(name)
	if err != nil {
		return nil, nil, fmt.Errorf("%w; also block, roundrobin", err)
	}
	net, err := partition.DefaultNetwork(pt, np)
	return pt, net, err
}
