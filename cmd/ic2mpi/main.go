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
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ic2mpi"
	"ic2mpi/internal/partition"
	"ic2mpi/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ic2mpi: ")

	np := flag.Int("np", 4, "number of virtual processors")
	graphPath := flag.String("graph", "", "application program graph in Chaco format (required)")
	partName := flag.String("partitioner", "metis", "static partitioner: "+strings.Join(partition.Names(), ", ")+", block, roundrobin")
	iters := flag.Int("iters", 20, "iterations")
	grain := flag.Float64("grain", 0.3e-3, "per-node grain size in seconds (paper: 0.0003 fine, 0.003 coarse)")
	dynamic := flag.Bool("dynamic", false, "enable the dynamic load balancer")
	every := flag.Int("every", 10, "load balancing period in iterations")
	overlap := flag.Bool("overlap", false, "overlap computation with communication (Fig. 8a variant)")
	verify := flag.Bool("verify", false, "verify the distributed result against a sequential reference run")
	flag.Parse()

	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	g, err := ic2mpi.ReadChaco(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges, max degree %d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())

	pt, net, err := pickPartitioner(*partName, *np)
	if err != nil {
		log.Fatal(err)
	}
	part, err := pt.Partition(g, net, *np)
	if err != nil {
		log.Fatal(err)
	}
	q, err := ic2mpi.EvaluatePartition(g, part, *np)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioner: %s  edge-cut %d  imbalance %.3f  weights %v\n",
		pt.Name(), q.EdgeCut, q.Imbalance, q.PartWeights)

	cfg := ic2mpi.Config{
		Graph:            g,
		Procs:            *np,
		InitialPartition: part,
		InitData:         workload.InitID,
		Node:             workload.Averaging(workload.UniformGrain(*grain)),
		Iterations:       *iters,
		Overlap:          *overlap,
		BalanceEvery:     *every,
	}
	if *dynamic {
		cfg.Balancer = ic2mpi.NewCentralizedBalancer(0, false)
	}
	res, err := ic2mpi.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTime Elapsed = %f\n\n", res.Elapsed)
	fmt.Printf("%-34s %s\n", "phase", "max time (s)")
	for ph := 0; ph < ic2mpi.NumPhases; ph++ {
		fmt.Printf("%-34s %.6f\n", ic2mpi.Phase(ph), res.MaxPhase(ic2mpi.Phase(ph)))
	}
	if *dynamic {
		fmt.Printf("\ntask migrations: %d\n", res.Migrations)
	}
	if *verify {
		want, err := ic2mpi.RunSequential(cfg)
		if err != nil {
			log.Fatal(err)
		}
		for v := range want {
			if res.FinalData[v] != want[v] {
				log.Fatalf("VERIFY FAILED at node %d: %v != %v", v, res.FinalData[v], want[v])
			}
		}
		fmt.Println("verify: distributed result matches the sequential reference")
	}
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
