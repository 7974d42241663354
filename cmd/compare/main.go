// Command compare runs the same workload under every pull policy and push
// scheduler and prints a side-by-side comparison — the ABL-POLICY and
// ABL-PUSH ablation studies as a CLI.
//
// Usage:
//
//	compare                       # both ablations at the paper defaults
//	compare -what pull -alpha 0.25
//	compare -what push -theta 1.0
package main

import (
	"flag"
	"fmt"
	"os"

	"hybridqos"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/report"
)

func main() {
	var (
		what    = flag.String("what", "both", "pull|push|channels|both")
		theta   = flag.Float64("theta", 0.6, "Zipf access skew θ")
		alpha   = flag.Float64("alpha", 0.5, "importance-factor mixing α")
		cutoff  = flag.Int("cutoff", 40, "push/pull cutoff K")
		horizon = flag.Float64("horizon", 15000, "simulated duration")
		reps    = flag.Int("reps", 3, "replications")
		seed    = flag.Uint64("seed", 1, "base seed")
	)
	flag.Parse()

	base := hybridqos.PaperConfig()
	base.Theta = *theta
	base.Alpha = *alpha
	base.Cutoff = *cutoff
	base.Horizon = *horizon
	base.Replications = *reps
	base.Seed = *seed

	if *what == "pull" || *what == "both" {
		fmt.Printf("=== pull policies (θ=%.2f, K=%d, α=%.2f for importance-factor) ===\n",
			*theta, *cutoff, *alpha)
		tbl := report.NewTable("",
			"policy", "overall delay", "Class-A", "Class-B", "Class-C", "total cost")
		for _, policy := range []string{
			hybridqos.PolicyGamma,
			hybridqos.PolicyPriority,
			hybridqos.PolicyStretch,
			hybridqos.PolicyFCFS,
			hybridqos.PolicyEDF,
			hybridqos.PolicyMRF,
			hybridqos.PolicyRxW,
			hybridqos.PolicyClassicStretch,
		} {
			cfg := base
			cfg.PullPolicy = policy
			res, err := hybridqos.Simulate(cfg)
			if err != nil {
				fatal("policy %s: %v", policy, err)
			}
			tbl.AddRow(policy,
				report.FormatFloat(res.OverallDelay, "%.2f"),
				report.FormatFloat(res.PerClass[0].MeanDelay, "%.2f"),
				report.FormatFloat(res.PerClass[1].MeanDelay, "%.2f"),
				report.FormatFloat(res.PerClass[2].MeanDelay, "%.2f"),
				report.FormatFloat(res.TotalCost, "%.1f"))
		}
		fmt.Println(tbl.String())
	}

	if *what == "push" || *what == "both" {
		fmt.Printf("=== push schedulers (θ=%.2f, K=%d, α=%.2f) ===\n", *theta, *cutoff, *alpha)
		tbl := report.NewTable("",
			"scheduler", "overall delay", "Class-A", "Class-B", "Class-C", "total cost")
		for _, scheduler := range []string{
			hybridqos.PushRoundRobin,
			hybridqos.PushBroadcastDisk,
			hybridqos.PushSquareRoot,
			hybridqos.PushNone,
		} {
			cfg := base
			cfg.PushScheduler = scheduler
			res, err := hybridqos.Simulate(cfg)
			if err != nil {
				fatal("scheduler %s: %v", scheduler, err)
			}
			tbl.AddRow(scheduler,
				report.FormatFloat(res.OverallDelay, "%.2f"),
				report.FormatFloat(res.PerClass[0].MeanDelay, "%.2f"),
				report.FormatFloat(res.PerClass[1].MeanDelay, "%.2f"),
				report.FormatFloat(res.PerClass[2].MeanDelay, "%.2f"),
				report.FormatFloat(res.TotalCost, "%.1f"))
		}
		fmt.Println(tbl.String())
		fmt.Println("note: the paper uses flat round-robin on the push side; popularity-")
		fmt.Println("aware push schedules (broadcast-disk, square-root rule) shorten the")
		fmt.Println("wait for hot push items at the cost of longer cold-item recurrence.")
	}

	if *what == "channels" {
		fmt.Printf("=== multi-channel splits (4 channels, fixed total capacity, θ=%.2f, K=%d) ===\n",
			*theta, *cutoff)
		tbl := report.NewTable("",
			"push/pull split", "overall delay", "Class-A", "Class-B", "Class-C")
		cat, err := catalog.Generate(catalog.PaperConfig(*theta, *seed))
		if err != nil {
			fatal("catalog: %v", err)
		}
		cl, err := clients.New(clients.PaperConfig())
		if err != nil {
			fatal("classes: %v", err)
		}
		for push := 1; push <= 3; push++ {
			m, err := core.Run(core.Config{
				Catalog:        cat,
				Classes:        cl,
				Lambda:         base.Lambda,
				Cutoff:         *cutoff,
				Alpha:          *alpha,
				PushChannels:   push,
				PullChannels:   4 - push,
				Horizon:        *horizon,
				WarmupFraction: 0.1,
				Seed:           *seed,
			})
			if err != nil {
				fatal("split %d: %v", push, err)
			}
			tbl.AddRow(fmt.Sprintf("%d push / %d pull", push, 4-push),
				report.FormatFloat(m.OverallMeanDelay(), "%.2f"),
				report.FormatFloat(m.PerClass[0].MeanDelay(), "%.2f"),
				report.FormatFloat(m.PerClass[1].MeanDelay(), "%.2f"),
				report.FormatFloat(m.PerClass[2].MeanDelay(), "%.2f"))
		}
		fmt.Println(tbl.String())
	}

	switch *what {
	case "pull", "push", "both", "channels":
	default:
		fatal("unknown -what %q", *what)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "compare: "+format+"\n", args...)
	os.Exit(1)
}
