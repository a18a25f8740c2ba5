// Command explore runs the explicit-state model checker on the built-in
// protocol models and prints a valence report in the vocabulary of
// Section 3.3 of the paper.
//
// Usage:
//
//	explore [-model NAME] [-inputs CSV] [-rounds R] [-limit S]
//
// Built-in models (-model):
//
//	gated  — the (2,1)-live gated consensus object (E8's Lemma 3-5 model)
//	group  — the Figure 5 group consensus, two singleton groups
//	of     — register-only obstruction-free consensus, round cap -rounds
//	of8    — shorthand for of with an 8-round cap
//	tas2 … tas6 — the test&set consensus protocol for 2…6 processes
//	          (consensus number 2: tas2 is correct, tas3+ violate agreement)
//
// The report on stdout holds only counts and verdicts, never state indices,
// so it is deterministic; cmd/explore/testdata holds the report of every
// built-in model, which main_test.go checks. Timing and throughput go to
// stderr.
//
// -inputs is a comma-separated per-process input assignment, each value in
// [0, 16). Without it process 0 proposes -in0 and every other process
// proposes -in1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/explore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

// newModel resolves a -model name; isOF marks the obstruction-free models,
// whose reports include the livelock-pump search.
func newModel(name string, rounds int) (p explore.Protocol, isOF bool, err error) {
	switch name {
	case "gated":
		return explore.GatedModel{}, false, nil
	case "group":
		return explore.GroupModel{}, false, nil
	case "of":
		return explore.OFModel{Rounds: rounds}, true, nil
	case "of8":
		return explore.OFModel{Rounds: 8}, true, nil
	case "tas2", "tas3", "tas4", "tas5", "tas6":
		procs, _ := strconv.Atoi(strings.TrimPrefix(name, "tas"))
		return explore.TASModel{Procs: procs}, false, nil
	default:
		return nil, false, fmt.Errorf("unknown model %q", name)
	}
}

// run parses args, explores the chosen model and writes its report to out;
// timing goes to errOut.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(errOut)
	model := fs.String("model", "gated", "protocol model: gated | group | of | of8 | tas2..tas6")
	inputsCSV := fs.String("inputs", "", "comma-separated per-process inputs (default: -in0 for process 0, -in1 for the rest)")
	in0 := fs.Int("in0", 0, "input of process 0 (ignored when -inputs is set)")
	in1 := fs.Int("in1", 1, "input of every other process (ignored when -inputs is set)")
	rounds := fs.Int("rounds", 2, "round cap for the of model")
	limit := fs.Int("limit", 2000000, "state budget")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, isOF, err := newModel(*model, *rounds)
	if err != nil {
		return err
	}

	inputs := make([]int, p.N())
	if *inputsCSV != "" {
		parts := strings.Split(*inputsCSV, ",")
		if len(parts) != p.N() {
			return fmt.Errorf("-inputs has %d values, model %s needs %d", len(parts), *model, p.N())
		}
		for i, s := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("-inputs: %v", err)
			}
			inputs[i] = v
		}
	} else {
		// Process 0 gets -in0, every other process gets -in1.
		inputs[0] = *in0
		for i := 1; i < len(inputs); i++ {
			inputs[i] = *in1
		}
	}

	t0 := time.Now()
	g, err := explore.Explore(p, inputs, *limit)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	fmt.Fprintf(errOut, "explored %d states in %v (%.0f states/s)\n",
		g.Size(), elapsed, float64(g.Size())/elapsed.Seconds())

	// Everything below is numbering-independent: counts, valences and
	// verdicts only, never state indices.
	fmt.Fprintf(out, "model %s, inputs %v\n", *model, inputs)
	fmt.Fprintf(out, "reachable states:  %d\n", g.Size())
	fmt.Fprintf(out, "initial valence:   %v\n", g.InitialValence())

	if _, bad := g.CheckAgreement(); bad {
		fmt.Fprintf(out, "agreement:         VIOLATED (some reachable state has two conflicting decisions)\n")
	} else {
		fmt.Fprintf(out, "agreement:         holds (exhaustive)\n")
	}
	fmt.Fprintf(out, "validity:          %v (exhaustive)\n", g.CheckValidity(inputs))

	for pid := 0; pid < p.N(); pid++ {
		if idx := g.FindDecider(pid, 10000); idx >= 0 {
			fmt.Fprintf(out, "decider:           p%d is a decider at a bivalent state (exhaustive check: %v)\n",
				pid, g.IsDecider(idx, pid))
		}
	}

	pairs := g.FindCriticalPairs()
	fmt.Fprintf(out, "critical configs:  %d\n", len(pairs))
	// Aggregate by (p, q, objects) — the multiset is numbering-independent.
	agg := map[string]int{}
	for _, c := range pairs {
		agg[fmt.Sprintf("p%d/p%d pending on %q (register=%v) and %q (register=%v)",
			c.P, c.Q, c.AccessP.Object, c.AccessP.IsRegister,
			c.AccessQ.Object, c.AccessQ.IsRegister)]++
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %s: %d\n", k, agg[k])
	}

	if isOF {
		pump := g.FindReachable(g.Initial(), func(s explore.State) bool {
			return explore.AtRoundBoundary(s, 1)
		})
		fmt.Fprintf(out, "livelock pump:     found=%v\n", pump >= 0)
	}
	return nil
}
