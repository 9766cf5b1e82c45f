package experiments

import (
	"strconv"

	"ic2mpi/internal/scenario"
)

// CellKey returns the stable cache key of one sweep cell: the scenario
// name plus every normalized parameter that selects the deterministic
// run — processor count, partitioner, exchange mode, buffer mode,
// balancer, interconnect model, fault-injection schedule (seed included),
// execution kernel, iteration count and the balancing schedule. Because
// every run is a pure function of this tuple, two cells with equal keys
// produce byte-identical results; the daemon's LRU cache relies on that.
//
// Parameters are normalized first, so a zero-value axis ("" or 0) and the
// scenario default it resolves to share one key. The key is versioned
// ("v1|...") so a future change to run semantics can invalidate persisted
// keys by bumping the prefix.
func CellKey(sc scenario.Scenario, p scenario.Params) (string, error) {
	np, err := sc.Normalize(p)
	if err != nil {
		return "", err
	}
	// The daemon builds a key per cell per job, so it is appended into one
	// buffer sized for the registered scenarios' keys; a longer one grows.
	b := make([]byte, 0, 192)
	b = append(append(b, "v1|"...), sc.Name...)
	b = strconv.AppendInt(append(b, "|procs="...), int64(np.Procs), 10)
	for _, f := range [...][2]string{
		{"|part=", np.Partitioner}, {"|exchange=", np.Exchange}, {"|buffers=", np.Buffers},
		{"|balancer=", np.Balancer}, {"|network=", np.Network}, {"|perturb=", np.Perturb},
		{"|kernel=", np.Kernel},
	} {
		b = append(append(b, f[0]...), f[1]...)
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"|iters=", np.Iterations}, {"|balevery=", np.BalanceEvery}, {"|balrounds=", np.BalanceRounds}} {
		b = strconv.AppendInt(append(b, f.name...), int64(f.v), 10)
	}
	return string(b), nil
}
