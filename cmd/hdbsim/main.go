// hdbsim generates the experimental workload of §5.1.2 — random
// multi-join queries, optimized into bushy parallel execution plans with
// operator scheduling and pipeline chains — and executes its plans under
// one strategy on one topology, printing each plan's operator tree and
// full measurement record: the tool for poking at individual executions.
//
// Usage:
//
//	hdbsim [-scale bench|paper] [-plan i|all|list] [-strategy DP|FP|SP]
//	       [-nodes N] [-procs P] [-skew z] [-errrate r] [-chain ops]
//	       [-parallel N]
//
// -plan list prints the workload's plan table and runs nothing. -plan all
// executes every plan of the workload; independent runs fan out across
// all processors by default (-parallel bounds the pool), and the records
// print in plan order regardless of completion order.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"

	"hierdb"
)

func main() {
	scaleName := flag.String("scale", "bench", "experiment scale: bench or paper")
	planSel := flag.String("plan", "0", "plan index in the generated workload, \"all\", or \"list\" to print the plan table and run nothing")
	strategy := flag.String("strategy", "DP", "DP, FP or SP")
	nodes := flag.Int("nodes", 1, "SM-nodes")
	procs := flag.Int("procs", 8, "processors per SM-node")
	skew := flag.Float64("skew", 0, "redistribution skew (Zipf factor)")
	errRate := flag.Float64("errrate", 0, "FP cost-model error rate (e.g. 0.2)")
	chain := flag.Int("chain", 0, "if > 0, run the §5.3 chain micro-benchmark with this many operators instead of a workload plan")
	parallel := flag.Int("parallel", 0, "worker pool size for -plan all (0 = all processors)")
	flag.Parse()

	var scale hierdb.Scale
	switch *scaleName {
	case "bench":
		scale = hierdb.BenchScale()
	case "paper":
		scale = hierdb.PaperScale()
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}
	if *parallel < 0 {
		log.Fatalf("-parallel must be >= 0, got %d", *parallel)
	}
	scale.Parallelism = *parallel

	var trees []*hierdb.Plan
	if *chain > 0 {
		trees = []*hierdb.Plan{hierdb.ChainPlan(*chain, *nodes, scale.CardDivisor)}
	} else {
		w := hierdb.GenerateWorkload(scale, *nodes)
		switch *planSel {
		case "list":
			listPlans(w, scale, *nodes)
			return
		case "all":
			trees = w.Plans
		default:
			idx, err := strconv.Atoi(*planSel)
			if err != nil {
				log.Fatalf("bad -plan %q: want an index, \"all\" or \"list\"", *planSel)
			}
			if idx < 0 || idx >= len(w.Plans) {
				log.Fatalf("plan %d out of range (%d plans)", idx, len(w.Plans))
			}
			trees = []*hierdb.Plan{w.Plans[idx]}
		}
	}
	cfg := hierdb.DefaultConfig(*nodes, *procs)
	mutate := func(o *hierdb.SimOptions) { o.RedistributionSkew = *skew }

	execute := func(tree *hierdb.Plan) (*hierdb.Run, error) {
		switch *strategy {
		case "DP":
			return hierdb.ExecuteDP(tree, cfg, mutate)
		case "FP":
			return hierdb.ExecuteFP(tree, cfg, *errRate, 1, mutate)
		case "SP":
			return hierdb.ExecuteSP(tree, cfg)
		}
		log.Fatalf("unknown strategy %q", *strategy)
		return nil, nil
	}

	// Fan the independent runs across the experiments' bounded pool;
	// results collect into a plan-indexed slice so output order never
	// depends on scheduling.
	runs := make([]*hierdb.Run, len(trees))
	errs := make([]error, len(trees))
	hierdb.RunMatrix(scale.Parallelism, len(trees), func(i int) {
		runs[i], errs[i] = execute(trees[i])
	})

	for i, run := range runs {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		if i > 0 {
			fmt.Println()
		}
		printRun(run, trees[i])
	}
}

// listPlans prints the generated workload as a table, one plan per line.
func listPlans(w *hierdb.Workload, scale hierdb.Scale, nodes int) {
	fmt.Printf("%d plans (%d queries x %d trees, %d relations each, %d nodes):\n",
		len(w.Plans), scale.Queries, scale.TreesPerQuery, scale.Relations, nodes)
	var totalBytes int64
	for i, p := range w.Plans {
		var base int64
		for _, op := range p.Ops {
			if op.Rel != nil {
				base += op.Rel.Bytes()
			}
		}
		totalBytes += base
		fmt.Printf("  [%2d] %-10s %2d ops %2d joins %2d chains  base=%6.1f MB  input tuples=%d\n",
			i, p.Name, len(p.Ops), p.Joins, len(p.Chains), float64(base)/(1<<20), p.TotalInputTuples())
	}
	fmt.Printf("total base data: %.2f GB\n", float64(totalBytes)/(1<<30))
}

func printRun(run *hierdb.Run, tree *hierdb.Plan) {
	fmt.Print(tree.String())
	fmt.Printf("plan      %s\n", run.Plan)
	fmt.Printf("strategy  %s on %s\n", run.Strategy, run.Config)
	fmt.Printf("response  %v\n", run.ResponseTime)
	fmt.Printf("busy      %v\n", run.Busy)
	fmt.Printf("io wait   %v\n", run.IOWait)
	fmt.Printf("idle      %v\n", run.Idle)
	fmt.Printf("results   %d tuples\n", run.ResultTuples)
	fmt.Printf("queue ops %d, suspensions %d\n", run.QueueOps, run.Suspensions)
	fmt.Printf("steals    %d rounds, %d succeeded, %d activations\n",
		run.StealRounds, run.StealsSucceeded, run.StolenActivations)
	fmt.Printf("traffic   pipeline %d B (%d msgs), control %d B (%d msgs), balance %d B (%d msgs)\n",
		run.PipelineBytes, run.PipelineMsgs, run.ControlBytes, run.ControlMsgs, run.BalanceBytes, run.BalanceMsgs)
}
