// Command docgen regenerates the measured tables in docs/scenarios.md
// and docs/benchmarks.md from deterministic scenario runs.
//
// Every generated region sits between <!-- docgen:begin <id> --> and
// <!-- docgen:end <id> --> markers; docgen re-renders each region from a
// pinned run configuration (internal/experiments.DocFiles) and rewrites
// the file in place. Because the platform executes in deterministic
// virtual time, the rendered bytes are a pure function of the code — the
// docs are checked build outputs, not hand-maintained numbers.
//
// Usage:
//
//	go run ./cmd/docgen              # rewrite docs in place
//	go run ./cmd/docgen -check       # exit 1 if any doc is stale (CI)
//	go run ./cmd/docgen -docs dir    # operate on another docs directory
//	go run ./cmd/docgen -parallel 4  # bound concurrent pinned runs
//
// The pinned runs behind each section execute concurrently on -parallel
// workers (default: number of CPUs); the rendered bytes are identical at
// any setting.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"ic2mpi/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("docgen: ")

	check := flag.Bool("check", false, "verify the docs match regenerated output; exit nonzero on drift")
	docsDir := flag.String("docs", "docs", "documentation directory")
	parallel := experiments.CountFlag(flag.CommandLine, "parallel", 0, "`count` of concurrent pinned scenario runs; 0 means number of CPUs")
	flag.Parse()
	experiments.Parallelism = *parallel

	files := experiments.DocFiles()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	stale := 0
	for _, name := range names {
		path := filepath.Join(*docsDir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		rendered, err := experiments.RenderDocFile(string(src), files[name])
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if rendered == string(src) {
			fmt.Printf("%s: up to date\n", path)
			continue
		}
		if *check {
			fmt.Printf("%s: STALE (run `go run ./cmd/docgen` to regenerate)\n", path)
			stale++
			continue
		}
		if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: regenerated\n", path)
	}
	if stale > 0 {
		log.Fatalf("%d file(s) out of date with the code's measured results", stale)
	}
}
