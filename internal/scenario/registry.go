package scenario

import (
	"fmt"
	"sort"
	"sync"
)

var (
	regMu     sync.RWMutex
	scenarios = map[string]Scenario{}
)

// Register adds a scenario to the registry. It panics on an empty or
// duplicate name or a scenario missing its plug-ins — registration
// happens in init functions, where a bad scenario is a programming error.
func Register(sc Scenario) {
	if err := validate(sc); err != nil {
		panic(err)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := scenarios[sc.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", sc.Name))
	}
	scenarios[sc.Name] = sc
}

func validate(sc Scenario) error {
	switch {
	case sc.Name == "":
		return fmt.Errorf("scenario: Register with empty name")
	case sc.Description == "":
		return fmt.Errorf("scenario %s: missing Description", sc.Name)
	case sc.Graph == nil:
		return fmt.Errorf("scenario %s: missing Graph generator", sc.Name)
	case sc.Runner == nil && (sc.InitData == nil || sc.Node == nil):
		return fmt.Errorf("scenario %s: missing InitData/Node plug-ins", sc.Name)
	case sc.Iterations <= 0:
		return fmt.Errorf("scenario %s: missing default Iterations", sc.Name)
	}
	return nil
}

// Lookup returns the scenario registered under name.
func Lookup(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	sc, ok := scenarios[name]
	return sc, ok
}

// Get is Lookup with an error naming the known scenarios, for CLI use.
func Get(name string) (Scenario, error) {
	sc, ok := Lookup(name)
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (known: %v)", name, Names())
	}
	return sc, nil
}

// List returns all registered scenarios sorted by name.
func List() []Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scenario, 0, len(scenarios))
	for _, sc := range scenarios {
		out = append(out, sc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Names returns the registered scenario names sorted lexicographically.
func Names() []string {
	list := List()
	out := make([]string, len(list))
	for i, sc := range list {
		out[i] = sc.Name
	}
	return out
}
