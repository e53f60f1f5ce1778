package sim

import (
	"fmt"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

// TestAddNodeDuplicateName pins the duplicate-name error (message
// included: callers match on it) now that the scan is a map lookup, for
// both explicit and derived names.
func TestAddNodeDuplicateName(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNode(NodeConfig{ID: 0, Name: "anchor"}); err != nil {
		t.Fatal(err)
	}
	_, err = net.AddNode(NodeConfig{ID: 1, Name: "anchor"})
	if err == nil {
		t.Fatal("duplicate explicit name accepted")
	}
	if got, want := err.Error(), `sim: duplicate node name "anchor"`; got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
	// Derived names ("node<ID>") collide through the same index.
	if _, err := net.AddNode(NodeConfig{ID: 2}); err != nil {
		t.Fatal(err)
	}
	_, err = net.AddNode(NodeConfig{ID: 2})
	if err == nil {
		t.Fatal("duplicate derived name accepted")
	}
	if got, want := err.Error(), `sim: duplicate node name "node2"`; got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
}

// TestAddNodeManyUniqueNames exercises the index at a size where the old
// quadratic scan was already measurable, and checks RNG-stream stability:
// node creation draws must not depend on how the duplicate check is
// implemented.
func TestAddNodeManyUniqueNames(t *testing.T) {
	build := func() []*Node {
		net, err := NewNetwork(NetworkConfig{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]*Node, 0, 500)
		for i := 0; i < 500; i++ {
			node, err := net.AddNode(NodeConfig{
				ID:   i,
				Name: fmt.Sprintf("n%03d", i),
				Pos:  geom.Point{X: float64(i), Y: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, node)
		}
		return nodes
	}
	a, b := build(), build()
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("node counts %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Radio.Clock() != b[i].Radio.Clock() {
			t.Fatalf("node %d clock differs between identical builds", i)
		}
	}
}
