// Command partgraph runs any of the platform's static partitioners on a
// Chaco-format graph and reports the partition quality — the standalone
// test-bed role Goal 3 of the paper assigns to the platform ("enable
// designers of algorithms for graph partitioning ... to validate the
// efficiency of their techniques").
//
// Usage:
//
//	partgraph -k 8 -graph hex64.graph [-partitioner metis] [-assign]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ic2mpi"
	"ic2mpi/internal/partition"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("partgraph: ")

	k := flag.Int("k", 4, "number of parts")
	graphPath := flag.String("graph", "", "Chaco graph file (required)")
	partName := flag.String("partitioner", "all", strings.Join(partition.Names(), ", ")+", or all")
	rref := flag.Float64("rref", 0.45, "PaGrid communication/computation ratio")
	assign := flag.Bool("assign", false, "print the node-to-processor assignment")
	coordsPath := flag.String("coords", "", "coordinates sidecar file (one 'row col' line per vertex)")
	hexRows := flag.Int("hexrows", 0, "attach row-major hex coordinates with this many rows")
	hexCols := flag.Int("hexcols", 0, "attach row-major hex coordinates with this many columns")
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
	if *coordsPath != "" {
		cf, err := os.Open(*coordsPath)
		if err != nil {
			log.Fatal(err)
		}
		coords, err := ic2mpi.ReadCoords(cf, g.NumVertices())
		cf.Close()
		if err != nil {
			log.Fatal(err)
		}
		g.Coords = coords
	} else if *hexRows > 0 && *hexCols > 0 {
		if err := ic2mpi.AttachHexCoords(g, *hexRows, *hexCols); err != nil {
			log.Fatal(err)
		}
	}

	names := partition.Names()
	if *partName != "all" {
		names = []string{*partName}
	}
	fmt.Printf("%-14s %10s %12s  %s\n", "partitioner", "edge-cut", "imbalance", "part weights")
	for _, name := range names {
		pt, net, err := pick(name, *k, *rref)
		if err != nil {
			log.Fatal(err)
		}
		part, err := pt.Partition(g, net, *k)
		if err != nil {
			// Geometric partitioners legitimately fail on graphs without
			// coordinates; report and continue in "all" mode.
			if *partName == "all" {
				fmt.Printf("%-14s %s\n", pt.Name(), err)
				continue
			}
			log.Fatal(err)
		}
		q, err := ic2mpi.EvaluatePartition(g, part, *k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10d %12.3f  %v\n", pt.Name(), q.EdgeCut, q.Imbalance, q.PartWeights)
		if *assign {
			for v, p := range part {
				fmt.Printf("  %d -> %d\n", v+1, p)
			}
		}
	}
}

// pick resolves one registered partitioner name, hands PaGrid the -rref
// ratio, and returns the processor network the partitioner maps onto.
func pick(name string, k int, rref float64) (ic2mpi.Partitioner, *ic2mpi.Network, error) {
	pt, err := partition.New(name)
	if err != nil {
		return nil, nil, err
	}
	if pg, ok := pt.(*partition.PaGrid); ok {
		pg.Rref = rref
	}
	net, err := partition.DefaultNetwork(pt, k)
	return pt, net, err
}
