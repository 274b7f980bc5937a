// Command apollo-inspect examines Apollo artifacts offline: trained
// model JSON files and flight-recorder output from the live debug
// endpoints.
//
//	apollo-inspect -model policy.json            inspect a model
//	apollo-inspect -model policy.json -gen -depth 3
//	apollo-inspect models -dir ./models          model report: parameter,
//	                                             nodes, leaves, depth
//	apollo-inspect models -url http://127.0.0.1:8080 -verify
//	                                             + tree validation and the
//	                                             local walk checked against
//	                                             the live /predict
//	apollo-inspect flight -in capture.json       misprediction table +
//	                                             decision-path histogram
//	apollo-inspect flight -url http://127.0.0.1:9999/debug/apollo/flight
//	apollo-inspect loop -dir ./loopjournal       stitch closed-loop event
//	                                             journals into per-loop
//	                                             timelines + reaction SLOs
//	apollo-inspect trace -in trace.json          validate a Chrome trace
//	apollo-inspect fleet -replicas "r1=http://:8081,r2=http://:8082"
//	                                             per-replica health and
//	                                             model-convergence verdict
package main

import (
	"flag"
	"fmt"
	"os"

	"apollo/internal/codegen"
	"apollo/internal/core"
)

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "models":
			err = runModelsCmd(os.Args[2:])
		case "flight":
			err = runFlightCmd(os.Args[2:])
		case "loop":
			err = runLoopCmd(os.Args[2:])
		case "trace":
			err = runTraceCmd(os.Args[2:])
		case "fleet":
			err = runFleetCmd(os.Args[2:])
		default:
			err = runModelCmd(os.Args[1:])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "apollo-inspect:", err)
			os.Exit(1)
		}
		return
	}
	if err := runModelCmd(nil); err != nil {
		fmt.Fprintln(os.Stderr, "apollo-inspect:", err)
		os.Exit(1)
	}
}

// runModelCmd keeps the original flag-based model inspection as the
// default when no subcommand is given.
func runModelCmd(args []string) error {
	fs := flag.NewFlagSet("apollo-inspect", flag.ContinueOnError)
	model := fs.String("model", "", "model JSON path (required)")
	gen := fs.Bool("gen", false, "print the generated Go decision function")
	depth := fs.Int("depth", 0, "render the tree pruned to this depth (0 = full)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return run(*model, *gen, *depth)
}

func run(path string, gen bool, depth int) error {
	if path == "" {
		return fmt.Errorf("-model is required")
	}
	m, err := core.LoadModel(path)
	if err != nil {
		return err
	}
	tree := m.Tree
	if depth > 0 {
		tree = tree.PruneToDepth(depth)
	}

	fmt.Printf("model:      %s\n", path)
	fmt.Printf("parameter:  %s (%d classes)\n", m.Param, m.Param.NumClasses())
	fmt.Printf("features:   %d (%v)\n", m.Schema.Len(), m.Schema.Names())
	fmt.Printf("tree:       depth %d, %d nodes, %d leaves", tree.Depth(), tree.NumNodes(), tree.NumLeaves())
	if depth > 0 {
		fmt.Printf(" (pruned from depth %d)", m.Tree.Depth())
	}
	fmt.Println()

	names, imps := m.FeatureRanking()
	fmt.Println("\nfeature importance:")
	for i, n := range names {
		if imps[i] == 0 && i >= 5 {
			break
		}
		fmt.Printf("  %2d. %-16s %.3f\n", i+1, n, imps[i])
	}

	fmt.Println("\ndecision tree:")
	fmt.Print(tree.String())

	if gen {
		pruned := &core.Model{Param: m.Param, Schema: m.Schema, Tree: tree}
		fmt.Println("\ngenerated Go decision function:")
		fmt.Print(codegen.Generate(pruned, "tuned", "ApolloBeginForall"))
	}
	return nil
}
