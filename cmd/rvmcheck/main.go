// Command rvmcheck runs the RVM static-analysis suite: unloggedstore,
// txlifecycle, uncheckedcommit, locksync, obsleak, and lockorder (see
// internal/analysis).  It analyzes the packages matching the given
// patterns and exits 1 if any diagnostic is reported:
//
//	go run ./cmd/rvmcheck ./...
//	go run ./cmd/rvmcheck -json ./...
//
// It loads every matched package into one program, so the interprocedural
// passes (call-graph summaries, lock-hierarchy verification) see across
// package boundaries.  Test files are not analyzed: the analyzers guard
// production discipline.  With -json the findings are emitted as a
// machine-readable object:
//
//	{"findings":[{"analyzer":...,"file":...,"line":...,"col":...,"message":...}]}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/rvm-go/rvm/internal/analysis"
	"github.com/rvm-go/rvm/internal/analysis/framework"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rvmcheck [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args(), *jsonOut))
}

// run loads, typechecks, and analyzes the matched packages as one whole
// program.
func run(patterns []string, jsonOut bool) int {
	fset, pkgs, err := framework.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
		return 2
	}
	findings, err := framework.RunAnalyzers(fset, pkgs, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
		return 2
	}
	if jsonOut {
		out := struct {
			Findings []framework.Finding `json:"findings"`
		}{Findings: findings}
		if out.Findings == nil {
			out.Findings = []framework.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rvmcheck: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
