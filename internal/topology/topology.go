// Package topology describes the physical interconnect of the multicomputer:
// how the nodes of the multi-node communication model (Fig. 3b) are wired
// together, and the deterministic minimal routing function the routers use.
// Provided shapes: ring, 2-D mesh, 2-D torus, 3-D torus, hypercube, star,
// fully connected, k-ary fat-tree and dragonfly; all are parameterised by
// size, per the workbench goal of evaluating a wide range of design options.
//
// Every family is generator-backed: the wiring is a closed-form function of
// the node id, so no adjacency structure is ever materialised and a
// million-node machine costs a few words of memory. Hot paths (routers, the
// fault injector, the network forward loop) use the allocation-free
// Neighbor(node, port) form; Neighbors remains for construction-time and
// diagnostic code.
package topology

import "fmt"

// Topology is a wiring of N nodes plus a deterministic routing function.
// Ports are small integers local to a node; Neighbors maps ports to node
// ids. Route returns the output port for a packet at `at` heading to `to`
// along a minimal deterministic path (dimension-order on meshes/tori, e-cube
// on hypercubes, up*/down* on fat-trees, minimal group routing on
// dragonflies).
type Topology interface {
	Name() string
	Nodes() int
	// Degree is the maximum number of ports on any node.
	Degree() int
	// Neighbors returns, for each port of the node, the node on the other
	// end, or -1 for an unconnected port (mesh edges, star leaves). The
	// slice may be built per call; hot paths use Neighbor instead.
	Neighbors(node int) []int
	// Neighbor returns the node at the far end of `port`, or -1 when the
	// port is unconnected or out of range. It is O(1) and never allocates:
	// for port < len(Neighbors(node)) it equals Neighbors(node)[port], and
	// it returns -1 for every port in [len(Neighbors(node)), Degree()).
	Neighbor(node, port int) int
	// Route returns the output port at node `at` towards node `to`.
	// at == to is invalid.
	Route(at, to int) int
	// MinimalPorts returns every output port at `at` that lies on some
	// minimal path to `to` (adaptive routers choose among them by local
	// congestion). The deterministic Route port is always included.
	MinimalPorts(at, to int) []int
	// Dims returns the number of routing dimensions; PortDim maps a port to
	// its dimension. Used for per-dimension virtual-channel bookkeeping.
	Dims() int
	// PortDim returns the routing dimension a port belongs to.
	PortDim(port int) int
	// Dateline reports whether the hop out of `node` via `port` crosses the
	// dimension's dateline (a wraparound edge). Wormhole routers switch to
	// the high virtual channel there, which is what makes wormhole routing
	// deadlock-free on rings and tori (Dally–Seitz).
	Dateline(node, port int) bool
}

// Kind names a topology family.
type Kind string

// Topology families.
const (
	Ring           Kind = "ring"
	Mesh2D         Kind = "mesh"
	Torus2D        Kind = "torus"
	Torus3D        Kind = "torus3d"
	Hypercube      Kind = "hypercube"
	Star           Kind = "star"
	FullyConnected Kind = "full"
	FatTree        Kind = "fattree"
	Dragonfly      Kind = "dragonfly"
)

// Hierarchical reports whether k is one of the generator-backed hierarchical
// families added for large-machine studies (torus3d, fattree, dragonfly) —
// the topologies gated to machine-configuration schema v2.
func Hierarchical(k Kind) bool {
	return k == Torus3D || k == FatTree || k == Dragonfly
}

// Config selects and sizes a topology.
type Config struct {
	Kind Kind
	// Nodes is the node count (ring, hypercube, star, full). For hypercubes
	// it must be a power of two.
	Nodes int
	// DimX and DimY size meshes and tori; DimZ additionally sizes 3-D tori.
	DimX, DimY int
	DimZ       int
	// Arity and Levels size k-ary fat-trees: Arity hosts per leaf switch
	// (a power of two) and Levels switch tiers. See NewFatTree.
	Arity, Levels int
	// Routers, Globals and Groups size dragonflies: Routers per group,
	// Globals (global links) per router, Groups in the machine. See
	// NewDragonfly.
	Routers, Globals, Groups int
}

// New builds the configured topology.
func New(cfg Config) (Topology, error) {
	switch cfg.Kind {
	case Ring:
		return NewRing(cfg.Nodes)
	case Mesh2D:
		return NewMesh(cfg.DimX, cfg.DimY)
	case Torus2D:
		return NewTorus(cfg.DimX, cfg.DimY)
	case Torus3D:
		return NewTorus3D(cfg.DimX, cfg.DimY, cfg.DimZ)
	case Hypercube:
		return NewHypercube(cfg.Nodes)
	case Star:
		return NewStar(cfg.Nodes)
	case FullyConnected:
		return NewFull(cfg.Nodes)
	case FatTree:
		return NewFatTree(cfg.Arity, cfg.Levels)
	case Dragonfly:
		return NewDragonfly(cfg.Routers, cfg.Globals, cfg.Groups)
	}
	return nil, fmt.Errorf("topology: unknown kind %q", cfg.Kind)
}

// NeighborsInto fills buf with the far end of every port of `node` and
// returns it, growing buf only when its capacity is below Degree(). The
// result always has Degree() entries with -1 for unconnected ports — the
// allocation-free counterpart of Neighbors for callers that iterate ports.
func NeighborsInto(t Topology, node int, buf []int) []int {
	deg := t.Degree()
	if cap(buf) < deg {
		buf = make([]int, deg)
	}
	buf = buf[:deg]
	for p := 0; p < deg; p++ {
		buf[p] = t.Neighbor(node, p)
	}
	return buf
}

// Distance returns the hop count of the path Route actually takes from a to
// b (0 if a == b). It panics if routing does not converge within Nodes()
// hops, which would mean a broken routing function.
func Distance(t Topology, a, b int) int {
	hops := 0
	at := a
	for at != b {
		port := t.Route(at, b)
		next := t.Neighbor(at, port)
		if next < 0 {
			panic(fmt.Sprintf("topology %s: route from %d to %d via dead port %d", t.Name(), at, b, port))
		}
		at = next
		hops++
		if hops > t.Nodes() {
			panic(fmt.Sprintf("topology %s: routing loop from %d to %d", t.Name(), a, b))
		}
	}
	return hops
}

// Diameter returns the longest routed distance between any node pair.
func Diameter(t Topology) int {
	d := 0
	for a := 0; a < t.Nodes(); a++ {
		for b := 0; b < t.Nodes(); b++ {
			if a == b {
				continue
			}
			if h := Distance(t, a, b); h > d {
				d = h
			}
		}
	}
	return d
}

// AvgDistance returns the mean routed distance over all ordered pairs.
func AvgDistance(t Topology) float64 {
	n := t.Nodes()
	if n < 2 {
		return 0
	}
	total := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				total += Distance(t, a, b)
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}

// Links counts the distinct physical links (unordered neighbor pairs).
func Links(t Topology) int {
	n := 0
	for a := 0; a < t.Nodes(); a++ {
		for _, b := range t.Neighbors(a) {
			if b > a {
				n++
			}
		}
	}
	return n
}

// ring

type ring struct{ n int }

// NewRing builds a bidirectional ring of n nodes (n >= 2).
func NewRing(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: ring needs >= 2 nodes, got %d", n)
	}
	if n > maxTopologyNodes {
		return nil, fmt.Errorf("topology: ring of %d nodes exceeds %d (field Nodes)", n, maxTopologyNodes)
	}
	return &ring{n}, nil
}

func (r *ring) Name() string { return fmt.Sprintf("ring(%d)", r.n) }
func (r *ring) Nodes() int   { return r.n }
func (r *ring) Degree() int  { return 2 }
func (r *ring) Neighbors(node int) []int {
	return []int{(node + 1) % r.n, (node - 1 + r.n) % r.n}
}
func (r *ring) Neighbor(node, port int) int {
	switch port {
	case 0:
		return (node + 1) % r.n
	case 1:
		return (node - 1 + r.n) % r.n
	}
	return -1
}
func (r *ring) Route(at, to int) int {
	fwd := (to - at + r.n) % r.n
	if fwd <= r.n-fwd {
		return 0 // clockwise
	}
	return 1
}
func (r *ring) Dims() int       { return 1 }
func (r *ring) PortDim(int) int { return 0 }
func (r *ring) Dateline(node, port int) bool {
	// Each direction is its own ring; its dateline is its wrap edge.
	return (port == 0 && node == r.n-1) || (port == 1 && node == 0)
}

// mesh / torus

type mesh struct {
	w, h int
	wrap bool
}

// NewMesh builds a w x h 2-D mesh with dimension-order (XY) routing.
func NewMesh(w, h int) (Topology, error) {
	if w >= 1 && h >= 1 && w > maxTopologyNodes/h {
		return nil, fmt.Errorf("topology: mesh %dx%d exceeds %d nodes (fields DimX, DimY)", w, h, maxTopologyNodes)
	}
	if w < 1 || h < 1 || w*h < 2 {
		return nil, fmt.Errorf("topology: mesh %dx%d too small", w, h)
	}
	return &mesh{w, h, false}, nil
}

// NewTorus builds a w x h 2-D torus (wrap-around mesh).
func NewTorus(w, h int) (Topology, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("topology: torus %dx%d needs both dimensions >= 2", w, h)
	}
	if w > maxTopologyNodes/h {
		return nil, fmt.Errorf("topology: torus %dx%d exceeds %d nodes (fields DimX, DimY)", w, h, maxTopologyNodes)
	}
	return &mesh{w, h, true}, nil
}

// Ports: 0 = +x (east), 1 = -x (west), 2 = +y (north), 3 = -y (south).
const (
	east = iota
	west
	north
	south
)

func (m *mesh) Name() string {
	if m.wrap {
		return fmt.Sprintf("torus(%dx%d)", m.w, m.h)
	}
	return fmt.Sprintf("mesh(%dx%d)", m.w, m.h)
}
func (m *mesh) Nodes() int  { return m.w * m.h }
func (m *mesh) Degree() int { return 4 }

func (m *mesh) coords(node int) (x, y int) { return node % m.w, node / m.w }
func (m *mesh) id(x, y int) int            { return y*m.w + x }

func (m *mesh) Neighbors(node int) []int {
	x, y := m.coords(node)
	nb := []int{-1, -1, -1, -1}
	if m.wrap {
		if m.w > 1 {
			nb[east] = m.id((x+1)%m.w, y)
			nb[west] = m.id((x-1+m.w)%m.w, y)
		}
		if m.h > 1 {
			nb[north] = m.id(x, (y+1)%m.h)
			nb[south] = m.id(x, (y-1+m.h)%m.h)
		}
	} else {
		if x+1 < m.w {
			nb[east] = m.id(x+1, y)
		}
		if x > 0 {
			nb[west] = m.id(x-1, y)
		}
		if y+1 < m.h {
			nb[north] = m.id(x, y+1)
		}
		if y > 0 {
			nb[south] = m.id(x, y-1)
		}
	}
	return nb
}

func (m *mesh) Neighbor(node, port int) int {
	x, y := m.coords(node)
	if m.wrap {
		switch port {
		case east:
			if m.w > 1 {
				return m.id((x+1)%m.w, y)
			}
		case west:
			if m.w > 1 {
				return m.id((x-1+m.w)%m.w, y)
			}
		case north:
			if m.h > 1 {
				return m.id(x, (y+1)%m.h)
			}
		case south:
			if m.h > 1 {
				return m.id(x, (y-1+m.h)%m.h)
			}
		}
		return -1
	}
	switch port {
	case east:
		if x+1 < m.w {
			return m.id(x+1, y)
		}
	case west:
		if x > 0 {
			return m.id(x-1, y)
		}
	case north:
		if y+1 < m.h {
			return m.id(x, y+1)
		}
	case south:
		if y > 0 {
			return m.id(x, y-1)
		}
	}
	return -1
}

// Route implements dimension-order (XY) routing: correct x first, then y.
// On the torus, each dimension takes the shorter way around.
func (m *mesh) Route(at, to int) int {
	ax, ay := m.coords(at)
	tx, ty := m.coords(to)
	if ax != tx {
		if !m.wrap {
			if tx > ax {
				return east
			}
			return west
		}
		fwd := (tx - ax + m.w) % m.w
		if fwd <= m.w-fwd {
			return east
		}
		return west
	}
	if ay != ty {
		if !m.wrap {
			if ty > ay {
				return north
			}
			return south
		}
		fwd := (ty - ay + m.h) % m.h
		if fwd <= m.h-fwd {
			return north
		}
		return south
	}
	panic("topology: Route(at, at)")
}

func (m *mesh) Dims() int { return 2 }
func (m *mesh) PortDim(port int) int {
	if port == east || port == west {
		return 0
	}
	return 1
}
func (m *mesh) Dateline(node, port int) bool {
	if !m.wrap {
		return false
	}
	x, y := m.coords(node)
	switch port {
	case east:
		return x == m.w-1
	case west:
		return x == 0
	case north:
		return y == m.h-1
	case south:
		return y == 0
	}
	return false
}

// hypercube

type hypercube struct {
	n, dim int
}

// NewHypercube builds a hypercube of n nodes (n a power of two >= 2), with
// e-cube routing (correct the lowest differing dimension first).
func NewHypercube(n int) (Topology, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("topology: hypercube needs a power-of-two node count, got %d", n)
	}
	if n > maxTopologyNodes {
		return nil, fmt.Errorf("topology: hypercube of %d nodes exceeds %d (field Nodes)", n, maxTopologyNodes)
	}
	dim := 0
	for x := n; x > 1; x >>= 1 {
		dim++
	}
	return &hypercube{n, dim}, nil
}

func (h *hypercube) Name() string { return fmt.Sprintf("hypercube(%d)", h.n) }
func (h *hypercube) Nodes() int   { return h.n }
func (h *hypercube) Degree() int  { return h.dim }
func (h *hypercube) Neighbors(node int) []int {
	nb := make([]int, h.dim)
	for i := 0; i < h.dim; i++ {
		nb[i] = node ^ (1 << i)
	}
	return nb
}
func (h *hypercube) Neighbor(node, port int) int {
	if port < 0 || port >= h.dim {
		return -1
	}
	return node ^ (1 << port)
}
func (h *hypercube) Route(at, to int) int {
	diff := at ^ to
	if diff == 0 {
		panic("topology: Route(at, at)")
	}
	for i := 0; i < h.dim; i++ {
		if diff&(1<<i) != 0 {
			return i
		}
	}
	panic("unreachable")
}

// star

type star struct{ n int }

// NewStar builds a star: node 0 is the hub, nodes 1..n-1 are leaves.
func NewStar(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs >= 2 nodes, got %d", n)
	}
	if n > maxTopologyNodes {
		return nil, fmt.Errorf("topology: star of %d nodes exceeds %d (field Nodes)", n, maxTopologyNodes)
	}
	return &star{n}, nil
}

func (s *star) Name() string { return fmt.Sprintf("star(%d)", s.n) }
func (s *star) Nodes() int   { return s.n }
func (s *star) Degree() int  { return s.n - 1 }
func (s *star) Neighbors(node int) []int {
	if node == 0 {
		nb := make([]int, s.n-1)
		for i := range nb {
			nb[i] = i + 1
		}
		return nb
	}
	return []int{0}
}
func (s *star) Neighbor(node, port int) int {
	if node == 0 {
		if port >= 0 && port < s.n-1 {
			return port + 1
		}
		return -1
	}
	if port == 0 {
		return 0
	}
	return -1
}
func (s *star) Route(at, to int) int {
	if at == to {
		panic("topology: Route(at, at)")
	}
	if at == 0 {
		return to - 1
	}
	return 0 // to the hub
}

// fully connected

type full struct{ n int }

// NewFull builds a fully connected (crossbar-like) topology.
func NewFull(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: full needs >= 2 nodes, got %d", n)
	}
	if n > maxTopologyNodes {
		return nil, fmt.Errorf("topology: full of %d nodes exceeds %d (field Nodes)", n, maxTopologyNodes)
	}
	return &full{n}, nil
}

func (f *full) Name() string { return fmt.Sprintf("full(%d)", f.n) }
func (f *full) Nodes() int   { return f.n }
func (f *full) Degree() int  { return f.n - 1 }
func (f *full) Neighbors(node int) []int {
	nb := make([]int, 0, f.n-1)
	for i := 0; i < f.n; i++ {
		if i != node {
			nb = append(nb, i)
		}
	}
	return nb
}
func (f *full) Neighbor(node, port int) int {
	if port < 0 || port >= f.n-1 {
		return -1
	}
	if port < node {
		return port
	}
	return port + 1
}
func (f *full) Route(at, to int) int {
	if at == to {
		panic("topology: Route(at, at)")
	}
	if to > at {
		return to - 1
	}
	return to
}

// Dateline bookkeeping for the remaining topologies: hypercubes route
// e-cube (no wraparound channels), stars and fully connected graphs have
// single-hop routes, so no virtual-channel datelines are needed.

func (h *hypercube) Dims() int              { return h.dim }
func (h *hypercube) PortDim(port int) int   { return port }
func (h *hypercube) Dateline(int, int) bool { return false }

func (s *star) Dims() int              { return 1 }
func (s *star) PortDim(int) int        { return 0 }
func (s *star) Dateline(int, int) bool { return false }

func (f *full) Dims() int              { return 1 }
func (f *full) PortDim(int) int        { return 0 }
func (f *full) Dateline(int, int) bool { return false }

// MinimalPorts implementations: every port that strictly reduces the
// remaining distance.

func (r *ring) MinimalPorts(at, to int) []int {
	fwd := (to - at + r.n) % r.n
	switch {
	case fwd*2 == r.n:
		return []int{0, 1} // equidistant: both directions minimal
	case fwd < r.n-fwd:
		return []int{0}
	default:
		return []int{1}
	}
}

func (m *mesh) MinimalPorts(at, to int) []int {
	ax, ay := m.coords(at)
	tx, ty := m.coords(to)
	var out []int
	addDim := func(a, t, size int, pos, neg int) {
		if a == t {
			return
		}
		if !m.wrap {
			if t > a {
				out = append(out, pos)
			} else {
				out = append(out, neg)
			}
			return
		}
		fwd := (t - a + size) % size
		if fwd*2 == size {
			out = append(out, pos, neg)
		} else if fwd < size-fwd {
			out = append(out, pos)
		} else {
			out = append(out, neg)
		}
	}
	addDim(ax, tx, m.w, east, west)
	addDim(ay, ty, m.h, north, south)
	return out
}

func (h *hypercube) MinimalPorts(at, to int) []int {
	diff := at ^ to
	var out []int
	for i := 0; i < h.dim; i++ {
		if diff&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func (s *star) MinimalPorts(at, to int) []int { return []int{s.Route(at, to)} }
func (f *full) MinimalPorts(at, to int) []int { return []int{f.Route(at, to)} }
