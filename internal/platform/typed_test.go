package platform

import (
	"errors"
	"strings"
	"testing"

	"ic2mpi/internal/graph"
)

// celsius is a value type of its own, as the heat scenario's Temp is: a
// program over it and one over IntData must not take each other's values.
type celsius int64

func (celsius) SizeBytes() int { return 8 }

// TestInitDataOfAnotherTypeIsRefused holds the build to its one check of
// each initial value: a value that is not the node function's type is
// refused with ErrDataType before any rank launches, by Run and by
// RunSequential alike.
func TestInitDataOfAnotherTypeIsRefused(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 8), 4)
	cfg.InitData = func(id graph.NodeID) NodeData {
		if id == 21 {
			return celsius(21)
		}
		return initID(id)
	}
	ran := false
	node := cfg.Node
	cfg.Node = Node(func(id graph.NodeID, iter, sub int, self IntData, nbrs []Neighbor[IntData]) (IntData, float64) {
		ran = true
		return mix(0)(id, iter, sub, self, nbrs)
	})
	want := "platform: InitData returned platform.celsius for node 21, the node function takes platform.IntData"
	_, err := Run(cfg)
	if !errors.Is(err, ErrDataType) || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Run: got %v, want ErrDataType for node 21", err)
	}
	if ran {
		t.Fatal("a node function ran: a rank launched before the refusal")
	}
	if _, err := RunSequential(cfg); !errors.Is(err, ErrDataType) || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("RunSequential: got %v, want ErrDataType for node 21", err)
	}
	cfg.Node = node
	cfg.InitData = func(id graph.NodeID) NodeData { return celsius(id) }
	if _, err := Run(cfg); !errors.Is(err, ErrDataType) {
		t.Fatalf("every value another type: got %v, want ErrDataType", err)
	}
}

// TestResumeOfAnotherTypeIsRefused resumes a snapshot of an IntData run
// with a program over celsius: the build refuses the first value it
// asserts with ErrDataType, naming the rank and the node, and no rank runs.
func TestResumeOfAnotherTypeIsRefused(t *testing.T) {
	cfg := checkpointConfig(t, 4)
	_, _, snaps := runWithSnapshots(t, cfg)
	ran := false
	cfg.Node = Node(func(_ graph.NodeID, _, _ int, self celsius, _ []Neighbor[celsius]) (celsius, float64) {
		ran = true
		return self - 1, 1e-4
	})
	cfg.ResumeFrom = snaps[4]
	_, err := Run(cfg)
	if !errors.Is(err, ErrDataType) || !strings.HasPrefix(err.Error(), "platform: resume snapshot holds platform.IntData for node 0, the node function takes platform.celsius") {
		t.Fatalf("got %v, want ErrDataType for rank 0's first node", err)
	}
	if ran {
		t.Fatal("a node function ran: a rank launched before the refusal")
	}
}

// TestNilResultOnlyForReferenceTypes holds the nil check to the types that
// have a nil: a pointer result of nil is refused, and a value type's zero
// is an ordinary value.
func TestNilResultOnlyForReferenceTypes(t *testing.T) {
	g := hexGrid(t, 2, 4)
	type box struct{ IntData }
	cfg := baseConfig(g, 2)
	cfg.InitData = func(id graph.NodeID) NodeData { return &box{IntData(id)} }
	cfg.Node = Node(func(id graph.NodeID, _, _ int, self *box, _ []Neighbor[*box]) (*box, float64) {
		if id == 5 {
			return nil, 0
		}
		return self, 0
	})
	if _, err := Run(cfg); err == nil || !strings.HasSuffix(err.Error(), "platform: node function returned nil data for node 5") {
		t.Fatalf("pointer values: got %v, want the nil-data error for node 5", err)
	}
	if _, err := RunSequential(cfg); err == nil || err.Error() != "platform: node function returned nil for node 5" {
		t.Fatalf("pointer values, sequential: got %v, want the nil error for node 5", err)
	}
	cfg = baseConfig(g, 2)
	cfg.Node = Node(func(graph.NodeID, int, int, IntData, []Neighbor[IntData]) (IntData, float64) { return 0, 0 })
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range res.FinalData {
		if d != IntData(0) {
			t.Fatalf("node %d ends at %v, want 0", v, d)
		}
	}
}

// TestMixedValuesRunAsNodeData runs a program whose values are of two
// types, which it takes as NodeData: the distributed run matches the
// sequential one, and each final value keeps its dynamic type.
func TestMixedValuesRunAsNodeData(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 8), 4)
	cfg.InitData = func(id graph.NodeID) NodeData {
		if id%2 == 0 {
			return celsius(id)
		}
		return IntData(id)
	}
	cfg.Node = Node(func(id graph.NodeID, iter, _ int, self NodeData, nbrs []Neighbor[NodeData]) (NodeData, float64) {
		sum := int64(iter)
		for _, nb := range nbrs {
			switch d := nb.Data.(type) {
			case celsius:
				sum += 3 * int64(d)
			case IntData:
				sum += int64(d)
			}
		}
		if _, ok := self.(celsius); ok {
			return celsius(sum % 1000), 1e-4
		}
		return IntData(sum % 1000), 1e-4
	})
	res := assertMatchesSequential(t, cfg)
	for v, d := range res.FinalData {
		if _, ok := d.(celsius); ok != (v%2 == 0) {
			t.Fatalf("node %d ends as %T", v, d)
		}
	}
}
