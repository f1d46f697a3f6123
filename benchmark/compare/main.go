// Command compare sets benchmark runs of a change against runs of its parent,
// per workload and metric, and exits 1 when an end-to-end metric regressed or
// a new run failed ops.
//
// From the benchmark directory:
//
//	go run ./compare -old old.jsonl -new new.jsonl
//	go run ./compare -new new.jsonl     # old: the newest set in baselines/
//
// Each file holds runs appended by the benchmark's -out flag. README.md
// states the rules.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tapas-sim/tapas/benchmark/result"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfgPath   = fs.String("config", "../BENCHMARK.json", "benchmark definition with the metrics' bounds")
		oldPath   = fs.String("old", "", "results of the parent (default: the newest set in -baselines)")
		newPath   = fs.String("new", "", "results of the change")
		baselines = fs.String("baselines", "baselines", "directory of recorded baseline sets")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *newPath == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "compare: need -new <results.jsonl>")
		return 2
	}
	cfg, err := readConfig(*cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	if *oldPath == "" {
		if *oldPath, err = newestSet(*baselines); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
	}
	old, err := result.ReadSet(*oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	new, err := result.ReadSet(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	if err := sameSeconds(old, new); err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	fmt.Fprintf(stdout, "old: %s (%s)\nnew: %s (%s)\n", *oldPath, describe(old), *newPath, describe(new))
	if compare(stdout, cfg, old, new) {
		return 1
	}
	return 0
}
