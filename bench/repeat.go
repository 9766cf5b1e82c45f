package main

import (
	"fmt"
	"io"
	"math"
)

// repeatSets is the acceptance tool: it runs sets of untraced runs, each run
// with another seed, and for every end-to-end metric prints each set's
// quartiles, its spread (q3-q1 over the median) and how much worse the later
// sets' medians are than the first set's, next to the metric's bound. It
// fails when a median is worse by more than the bound, when a spread other
// than setup_s's is wider than the bound, or when any run's outputs were
// wrong.
func repeatSets(cfg runConfig, sets, runs int) error {
	values := make([]map[string][]float64, sets) // per set: "workload metric" -> one value per run
	quiet := cfg
	quiet.log = io.Discard
	incorrect := 0
	for s := range values {
		values[s] = map[string][]float64{}
		for _, w := range workloads {
			for r := 0; r < runs; r++ {
				res, err := child(quiet, w.name, cfg.seed+int64(s*runs+r), 0)
				if err != nil {
					return err
				}
				if !res.Correct {
					incorrect++
				}
				for _, m := range append(res.Metrics, metric{Name: "host_speed", Value: res.HostSpeed}) {
					key := w.name + " " + m.Name
					values[s][key] = append(values[s][key], m.Value)
				}
			}
			fmt.Printf("# set %d: %s done (%d runs)\n", s+1, w.name, runs)
		}
	}

	bad := 0
	fmt.Printf("%-15s %-14s %6s", "workload", "metric", "bound")
	for s := range values {
		fmt.Printf(" | set %d: %10s %10s %10s %7s", s+1, "q1", "median", "q3", "spread")
	}
	fmt.Printf(" | %8s\n", "worse by")
	// host_speed is shown for information: it is the host's drift, which the
	// scaling takes out of the rows above it, and has no bound to fail.
	rows := append(append([]metricDef(nil), endToEnd...), metricDef{Name: "host_speed", Better: "higher"})
	for _, w := range workloads {
		for _, def := range rows {
			key := w.name + " " + def.Name
			if def.Bound == 0 {
				def.Bound = math.Inf(1)
			}
			fmt.Printf("%-15s %-14s %5.0f%%", w.name, def.Name, 100*def.Bound)
			var first, worst float64
			verdict := "ok"
			for s := range values {
				q1, med, q3 := quartiles(values[s][key])
				spread := (q3 - q1) / med
				fmt.Printf(" | %17.5g %10.5g %10.5g %6.1f%%", q1, med, q3, 100*spread)
				if spread > def.Bound && def.Name != "setup_s" {
					verdict = "SPREAD WIDER THAN BOUND"
				}
				if s == 0 {
					first = med
					continue
				}
				worse := (med - first) / first
				if def.Better == "higher" {
					worse = -worse
				}
				worst = max(worst, worse)
			}
			if worst > def.Bound {
				verdict = "MEDIAN WORSE THAN BOUND"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf(" | %7.1f%% %s\n", 100*worst, verdict)
		}
	}
	switch {
	case incorrect > 0:
		return fmt.Errorf("%d runs had wrong outputs", incorrect)
	case bad > 0:
		return fmt.Errorf("%d metric/workload pairs outside their bounds", bad)
	}
	return nil
}
