package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hybridqos/internal/clients"
	"hybridqos/internal/rng"
)

// Router picks the destination cell for a roaming client, in the style of
// the internal/policy registries: cross-cell routing is a named, pluggable
// policy so experiments can compare strategies without touching the cluster
// engine.
//
// Determinism contract: Route is called sequentially at handoff barriers, in
// cell-index order, once per roamer; any randomness must come from the
// supplied per-cell stream. The returned cell must be a valid index other
// than src (a roaming client has, by definition, left its cell).
type Router interface {
	// Name identifies the routing policy in reports.
	Name() string
	// Route returns the destination cell for a roamer of the given class
	// leaving cell src. loads holds every cell's current pending load —
	// updated by the cluster as the barrier assigns roamers, so consecutive
	// decisions see the load they are creating. r is the origin cell's
	// mobility stream.
	Route(src int, class clients.Class, loads *Loads, r *rng.Source) int
}

// Factory builds a router for a cluster of cells cells and classes service
// classes.
type Factory func(cells, classes int) (Router, error)

// DefaultRouting is the routing policy used when no name is given.
const DefaultRouting = "nearest"

// UnknownRoutingError reports a lookup of an unregistered routing name.
type UnknownRoutingError struct {
	Name  string
	Known []string
}

func (e *UnknownRoutingError) Error() string {
	return fmt.Sprintf("cluster: unknown routing policy %q (known: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// DuplicateRoutingError reports a registration under an already-taken name.
type DuplicateRoutingError struct{ Name string }

func (e *DuplicateRoutingError) Error() string {
	return fmt.Sprintf("cluster: duplicate routing policy registration %q", e.Name)
}

var (
	routingMu sync.RWMutex
	routings  = make(map[string]Factory)
)

// RegisterRouting adds a routing-policy factory under a new name.
// Registering an empty or already-taken name is a typed error.
func RegisterRouting(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("cluster: empty routing policy name")
	}
	routingMu.Lock()
	defer routingMu.Unlock()
	if _, ok := routings[name]; ok {
		return &DuplicateRoutingError{Name: name}
	}
	routings[name] = f
	return nil
}

// NewRouter builds the named routing policy. An empty name selects
// DefaultRouting.
func NewRouter(name string, cells, classes int) (Router, error) {
	if name == "" {
		name = DefaultRouting
	}
	routingMu.RLock()
	f, ok := routings[name]
	routingMu.RUnlock()
	if !ok {
		return nil, &UnknownRoutingError{Name: name, Known: RoutingNames()}
	}
	return f(cells, classes)
}

// KnownRouting reports whether a routing name is registered; the empty
// string names the default and is always known.
func KnownRouting(name string) bool {
	if name == "" {
		return true
	}
	routingMu.RLock()
	defer routingMu.RUnlock()
	_, ok := routings[name]
	return ok
}

// RoutingNames returns the sorted registered routing-policy names.
func RoutingNames() []string {
	routingMu.RLock()
	defer routingMu.RUnlock()
	names := make([]string, 0, len(routings))
	for name := range routings {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func mustRegisterRouting(name string, f Factory) {
	if err := RegisterRouting(name, f); err != nil {
		panic(fmt.Errorf("cluster: built-in routing registration: %w", err))
	}
}

// checkCells validates the cluster size a factory was handed.
func checkCells(cells int) error {
	if cells < 2 {
		return fmt.Errorf("cluster: routing needs at least 2 cells, got %d", cells)
	}
	return nil
}

// nearest routes to a ring neighbour: a roamer drifts to one of the two
// geographically adjacent cells, direction drawn from the origin cell's
// mobility stream (with 2 cells there is only one neighbour).
type nearest struct{ cells int }

func (nearest) Name() string { return "nearest" }

func (p nearest) Route(src int, _ clients.Class, _ *Loads, r *rng.Source) int {
	if p.cells == 2 {
		return 1 - src
	}
	if r.Intn(2) == 0 {
		return (src + 1) % p.cells
	}
	return (src + p.cells - 1) % p.cells
}

// leastLoaded routes to the cell with the smallest pending load, ties broken
// by lowest index. The load vector is live across a barrier, so a burst of
// roamers spreads instead of piling onto one momentarily-idle cell.
type leastLoaded struct{ cells int }

func (leastLoaded) Name() string { return "least-loaded" }

func (p leastLoaded) Route(src int, _ clients.Class, loads *Loads, _ *rng.Source) int {
	return loads.ArgMinExcept(src)
}

// classAffine partitions cells round-robin across service classes
// (cell i serves class i mod classes) and routes a roamer to the
// least-loaded cell of its own class's partition, falling back to plain
// least-loaded when the partition offers no destination.
type classAffine struct{ cells, classes int }

func (classAffine) Name() string { return "class-affine" }

func (p classAffine) Route(src int, class clients.Class, loads *Loads, _ *rng.Source) int {
	best := -1
	if c := int(class); c >= 0 && c < p.classes {
		for i := c; i < p.cells; i += p.classes {
			if i != src && (best == -1 || loads.Load(i) < loads.Load(best)) {
				best = i
			}
		}
	}
	if best == -1 {
		return loads.ArgMinExcept(src)
	}
	return best
}

func init() {
	mustRegisterRouting("nearest", func(cells, _ int) (Router, error) {
		if err := checkCells(cells); err != nil {
			return nil, err
		}
		return nearest{cells: cells}, nil
	})
	mustRegisterRouting("least-loaded", func(cells, _ int) (Router, error) {
		if err := checkCells(cells); err != nil {
			return nil, err
		}
		return leastLoaded{cells: cells}, nil
	})
	mustRegisterRouting("class-affine", func(cells, classes int) (Router, error) {
		if err := checkCells(cells); err != nil {
			return nil, err
		}
		if classes < 1 {
			return nil, fmt.Errorf("cluster: class-affine routing needs at least 1 class, got %d", classes)
		}
		return classAffine{cells: cells, classes: classes}, nil
	})
}
