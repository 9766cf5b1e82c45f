package balance

// The seeded draws of invariants_test.go, for the external test package
// that pins plans through the name registry.
var (
	RandomProcGraph = randomProcGraph
	RandomHistory   = randomHistory
)
