package balance

import "ic2mpi/internal/platform"

// Predictive is a forecasting balancer: instead of reacting to the load
// the processors just reported, it extrapolates each processor's compute
// time one balancing window ahead with Holt's exponentially-weighted
// level+trend smoothing over the run's balancing history (the per-window
// times and speed factors the platform records — see
// platform.HistoryBalancer), then runs diffusion-style pairing on the
// forecast. Under a ramp schedule a processor whose speed factor is
// climbing gets its forecast inflated before its measured time crosses
// any threshold, so migration starts ahead of the fault instead of behind
// it. With no history (the first balancing invocations, or plain Plan
// calls) the forecast degenerates to the current times and the balancer
// behaves exactly like Diffusion.
type Predictive struct{}

// alpha is Predictive's exponential smoothing weight for both the level
// and the trend.
const alpha = 0.5

// Name implements platform.Balancer.
func (b *Predictive) Name() string { return "Predictive" }

// Plan implements platform.Balancer: planning with an empty history, so
// direct callers (and the property harness) see pure diffusion on the
// current times.
func (b *Predictive) Plan(pg platform.ProcGraph) []platform.Pair {
	return b.PlanWithHistory(pg, nil)
}

// PlanWithHistory implements platform.HistoryBalancer.
func (b *Predictive) PlanWithHistory(pg platform.ProcGraph, hist []platform.LoadSample) []platform.Pair {
	p := len(pg.Times)
	if p < 2 || len(pg.Comm) != p {
		return nil
	}
	// One diffusion pass on the forecast loads: most overloaded first,
	// each paired with its least-loaded communicating neighbor below the
	// mean forecast.
	return diffuse(b.forecast(pg, hist), pg.Comm, ranks(p), make([]bool, p), nil)
}

// forecast extrapolates each processor's next-window compute time: the
// current gathered time plus the Holt trend of its recorded windows,
// scaled by the projected drift of its speed factor (a processor whose
// execution-time multiplier is climbing will take proportionally longer
// next window even at constant work). Fewer than two usable samples
// leave the current times unchanged. Forecasts are clamped at zero.
func (b *Predictive) forecast(pg platform.ProcGraph, hist []platform.LoadSample) []float64 {
	p := len(pg.Times)
	out := make([]float64, p)
	for r := 0; r < p; r++ {
		var level, trend, spLevel, spTrend float64
		seen := 0
		for _, s := range hist {
			if len(s.Times) != p || len(s.Speeds) != p {
				continue
			}
			if seen == 0 {
				level, spLevel = s.Times[r], s.Speeds[r]
			} else {
				prev := level
				level = alpha*s.Times[r] + (1-alpha)*(level+trend)
				trend = alpha*(level-prev) + (1-alpha)*trend
				prevSp := spLevel
				spLevel = alpha*s.Speeds[r] + (1-alpha)*(spLevel+spTrend)
				spTrend = alpha*(spLevel-prevSp) + (1-alpha)*spTrend
			}
			seen++
		}
		f := pg.Times[r]
		if seen >= 2 {
			f += trend
			if spLevel > 0 {
				if next := spLevel + spTrend; next > 0 {
					f *= next / spLevel
				}
			}
		}
		if f < 0 {
			f = 0
		}
		out[r] = f
	}
	return out
}
