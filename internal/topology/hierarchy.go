package topology

import "fmt"

// Hierarchical / large-machine topology families. All three are pure
// generators: the wiring and the routing function are closed-form in the
// node id, so a million-node machine is a handful of integers and every
// Route/Neighbor/Dateline query is O(1) with zero allocation.

// maxTopologyNodes bounds every family's node count so id arithmetic stays
// well inside int range on every platform.
const maxTopologyNodes = 1 << 30

// 3-D torus -----------------------------------------------------------------

// Ports: 0 = +x, 1 = -x, 2 = +y, 3 = -y, 4 = +z, 5 = -z.
type torus3d struct {
	x, y, z int
}

// NewTorus3D builds an x*y*z 3-D torus with dimension-order (XYZ) routing,
// each dimension taking the shorter way around, and per-dimension datelines
// at the wrap edges (Dally–Seitz virtual-channel deadlock avoidance, as on
// the 2-D torus).
func NewTorus3D(x, y, z int) (Topology, error) {
	if x < 2 || y < 2 || z < 2 {
		return nil, fmt.Errorf("topology: torus3d %dx%dx%d needs every dimension >= 2 (fields DimX, DimY, DimZ)", x, y, z)
	}
	if x > maxTopologyNodes/y || x*y > maxTopologyNodes/z {
		return nil, fmt.Errorf("topology: torus3d %dx%dx%d exceeds %d nodes (fields DimX, DimY, DimZ)", x, y, z, maxTopologyNodes)
	}
	return &torus3d{x, y, z}, nil
}

func (t *torus3d) Name() string { return fmt.Sprintf("torus3d(%dx%dx%d)", t.x, t.y, t.z) }
func (t *torus3d) Nodes() int   { return t.x * t.y * t.z }
func (t *torus3d) Degree() int  { return 6 }

func (t *torus3d) coords(node int) (x, y, z int) {
	return node % t.x, (node / t.x) % t.y, node / (t.x * t.y)
}
func (t *torus3d) id(x, y, z int) int { return (z*t.y+y)*t.x + x }

func (t *torus3d) Neighbor(node, port int) int {
	x, y, z := t.coords(node)
	switch port {
	case 0:
		return t.id((x+1)%t.x, y, z)
	case 1:
		return t.id((x-1+t.x)%t.x, y, z)
	case 2:
		return t.id(x, (y+1)%t.y, z)
	case 3:
		return t.id(x, (y-1+t.y)%t.y, z)
	case 4:
		return t.id(x, y, (z+1)%t.z)
	case 5:
		return t.id(x, y, (z-1+t.z)%t.z)
	}
	return -1
}

func (t *torus3d) Neighbors(node int) []int {
	nb := make([]int, 6)
	for p := 0; p < 6; p++ {
		nb[p] = t.Neighbor(node, p)
	}
	return nb
}

// Route corrects x, then y, then z, taking the shorter way around each ring.
func (t *torus3d) Route(at, to int) int {
	ax, ay, az := t.coords(at)
	tx, ty, tz := t.coords(to)
	if ax != tx {
		return ringPort(ax, tx, t.x, 0, 1)
	}
	if ay != ty {
		return ringPort(ay, ty, t.y, 2, 3)
	}
	if az != tz {
		return ringPort(az, tz, t.z, 4, 5)
	}
	panic("topology: Route(at, at)")
}

// ringPort picks the shorter direction around a size-wide ring, preferring
// the positive port on ties.
func ringPort(a, t, size, pos, neg int) int {
	fwd := (t - a + size) % size
	if fwd <= size-fwd {
		return pos
	}
	return neg
}

func (t *torus3d) MinimalPorts(at, to int) []int {
	ax, ay, az := t.coords(at)
	tx, ty, tz := t.coords(to)
	var out []int
	addDim := func(a, tc, size, pos, neg int) {
		if a == tc {
			return
		}
		fwd := (tc - a + size) % size
		if fwd*2 == size {
			out = append(out, pos, neg)
		} else if fwd < size-fwd {
			out = append(out, pos)
		} else {
			out = append(out, neg)
		}
	}
	addDim(ax, tx, t.x, 0, 1)
	addDim(ay, ty, t.y, 2, 3)
	addDim(az, tz, t.z, 4, 5)
	return out
}

func (t *torus3d) Dims() int            { return 3 }
func (t *torus3d) PortDim(port int) int { return port / 2 }
func (t *torus3d) Dateline(node, port int) bool {
	x, y, z := t.coords(node)
	switch port {
	case 0:
		return x == t.x-1
	case 1:
		return x == 0
	case 2:
		return y == t.y-1
	case 3:
		return y == 0
	case 4:
		return z == t.z-1
	case 5:
		return z == 0
	}
	return false
}

// k-ary fat-tree ------------------------------------------------------------

// A k-ary fat-tree with L switch levels, modelled as a direct network (every
// host and every switch is a machine node, as in the workbench node model):
//
//   - hosts are nodes [0, k^L); a host id is L base-k digits;
//   - each switch level l in 1..L has k^(L-1) switches (L-1 base-k digits),
//     numbered after the hosts level by level;
//   - a level-l switch s has k down ports (port j in [0,k)) and, below the
//     top level, k up ports (port k+j). Down port j of a level-1 switch
//     leads to host s*k+j; down port j of a higher switch replaces digit
//     l-2 of s with j; up port k+j replaces digit l-1 with j. Hosts have a
//     single up port 0.
//
// Routing is up*/down*: climb — choosing the destination's digit, so the
// scheme is deterministic destination-based ECMP — until the switch index
// matches the destination's column on every digit the remaining descent
// cannot correct, then descend. Up/down routing is acyclic, so no
// virtual-channel datelines are needed and wormhole switching is
// deadlock-free. Arity must be a power of two so digit arithmetic is
// shift/mask on the hot path.
type fattree struct {
	k, levels int
	shift     uint // log2(k)
	hosts     int  // k^levels
	perLevel  int  // k^(levels-1) switches per level
}

// NewFatTree builds a k-ary fat-tree with `levels` switch tiers.
func NewFatTree(arity, levels int) (Topology, error) {
	if arity < 2 || arity&(arity-1) != 0 {
		return nil, fmt.Errorf("topology: fattree arity must be a power of two >= 2, got %d (field Arity)", arity)
	}
	if levels < 1 {
		return nil, fmt.Errorf("topology: fattree needs >= 1 switch level, got %d (field Levels)", levels)
	}
	shift := uint(0)
	for x := arity; x > 1; x >>= 1 {
		shift++
	}
	hosts := 1
	for i := 0; i < levels; i++ {
		if hosts > maxTopologyNodes/arity {
			return nil, fmt.Errorf("topology: fattree arity=%d levels=%d exceeds %d hosts (fields Arity, Levels)", arity, levels, maxTopologyNodes)
		}
		hosts *= arity
	}
	return &fattree{k: arity, levels: levels, shift: shift, hosts: hosts, perLevel: hosts / arity}, nil
}

func (f *fattree) Name() string { return fmt.Sprintf("fattree(k=%d,l=%d)", f.k, f.levels) }
func (f *fattree) Nodes() int   { return f.hosts + f.levels*f.perLevel }
func (f *fattree) Degree() int  { return 2 * f.k }

// locate splits a node id into (level, index): level 0 is the host plane.
func (f *fattree) locate(node int) (level, idx int) {
	if node < f.hosts {
		return 0, node
	}
	r := node - f.hosts
	return r/f.perLevel + 1, r % f.perLevel
}

// swid is the inverse of locate for switch planes.
func (f *fattree) swid(level, idx int) int { return f.hosts + (level-1)*f.perLevel + idx }

func (f *fattree) digit(idx, pos int) int {
	return (idx >> (uint(pos) * f.shift)) & (f.k - 1)
}
func (f *fattree) setDigit(idx, pos, v int) int {
	sh := uint(pos) * f.shift
	return idx&^((f.k-1)<<sh) | v<<sh
}

// maxDiffDigit returns the highest digit position where a and b differ, or
// -1 when they are equal.
func (f *fattree) maxDiffDigit(a, b int) int {
	d := a ^ b
	m := -1
	for d != 0 {
		m++
		d >>= f.shift
	}
	return m
}

func (f *fattree) Neighbor(node, port int) int {
	level, idx := f.locate(node)
	switch {
	case level == 0: // host: single up port to its leaf switch
		if port == 0 {
			return f.swid(1, idx>>f.shift)
		}
	case port >= 0 && port < f.k: // down
		if level == 1 {
			return idx<<f.shift | port
		}
		return f.swid(level-1, f.setDigit(idx, level-2, port))
	case port < 2*f.k && level < f.levels: // up
		return f.swid(level+1, f.setDigit(idx, level-1, port-f.k))
	}
	return -1
}

func (f *fattree) Neighbors(node int) []int {
	level, _ := f.locate(node)
	n := 2 * f.k
	switch {
	case level == 0:
		n = 1
	case level == f.levels:
		n = f.k
	}
	nb := make([]int, n)
	for p := range nb {
		nb[p] = f.Neighbor(node, p)
	}
	return nb
}

// anchor maps a destination to switch-index space: the leaf switch column
// for a host, the switch's own index otherwise. Routing is then digit
// correction against the anchor.
func (f *fattree) anchor(level, idx int) int {
	if level == 0 {
		return idx >> f.shift
	}
	return idx
}

func (f *fattree) Route(at, to int) int {
	if at == to {
		panic("topology: Route(at, at)")
	}
	al, ai := f.locate(at)
	if al == 0 {
		return 0 // a host's only port
	}
	tl, ti := f.locate(to)
	a := f.anchor(tl, ti)
	m := f.maxDiffDigit(ai, a)
	if m < 0 { // in the destination's column
		if tl == 0 {
			if al == 1 {
				return to & (f.k - 1) // down to the host itself
			}
			return f.digit(a, al-2) // descend in-column
		}
		if al < tl {
			return f.k + f.digit(a, al-1) // ascend in-column
		}
		return f.digit(a, al-2)
	}
	if al <= m+1 {
		// The highest wrong digit can only change at level m+2: climb,
		// already steering by the destination's digit.
		return f.k + f.digit(a, al-1)
	}
	return f.digit(a, al-2) // descend, correcting digit al-2
}

func (f *fattree) MinimalPorts(at, to int) []int {
	al, ai := f.locate(at)
	tl, ti := f.locate(to)
	if al != 0 && tl == 0 {
		// Host-bound traffic in the climb phase may take any up port: every
		// level-(al+1) switch can still descend to the destination in the
		// same number of hops.
		if m := f.maxDiffDigit(ai, f.anchor(tl, ti)); m >= al-1 {
			out := make([]int, f.k)
			for j := range out {
				out[j] = f.k + j
			}
			return out
		}
	}
	return []int{f.Route(at, to)}
}

func (f *fattree) Dims() int              { return 1 }
func (f *fattree) PortDim(int) int        { return 0 }
func (f *fattree) Dateline(int, int) bool { return false }

// dragonfly -----------------------------------------------------------------

// A dragonfly of `groups` groups, each a clique of `routers` routers, with
// `globals` global links per router. Ports 0..routers-2 are intra-group
// (clique) links; ports routers-1 .. routers-2+globals are global links.
// Global link ℓ = localRouter*globals + linkIdx of group G runs to group
// ℓ (for ℓ < G) or ℓ+1 (skipping G itself), the standard absolute
// arrangement, so any two groups are joined by exactly one global link when
// groups-1 == routers*globals (smaller group counts leave spare global
// ports unconnected).
//
// Minimal routing is at most three hops — intra to the gateway router,
// one global hop, intra to the destination — and Dateline marks every
// global port, so the existing wormhole dateline machinery yields the
// classic two-virtual-channel dragonfly deadlock-avoidance scheme: VC0
// before the global hop, VC1 from the global hop on.
type dragonfly struct {
	groups, routers, globals int
}

// NewDragonfly builds a dragonfly from routers-per-group, global links per
// router, and the group count.
func NewDragonfly(routers, globals, groups int) (Topology, error) {
	if routers < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs >= 1 router per group, got %d (field Routers)", routers)
	}
	if globals < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs >= 1 global link per router, got %d (field Globals)", globals)
	}
	if groups < 2 {
		return nil, fmt.Errorf("topology: dragonfly needs >= 2 groups, got %d (field Groups)", groups)
	}
	if groups-1 > routers*globals {
		return nil, fmt.Errorf("topology: dragonfly with %d groups needs Routers*Globals >= %d, got %d*%d (fields Routers, Globals, Groups)",
			groups, groups-1, routers, globals)
	}
	if routers > maxTopologyNodes/groups {
		return nil, fmt.Errorf("topology: dragonfly %d*%d exceeds %d nodes (fields Groups, Routers)", groups, routers, maxTopologyNodes)
	}
	return &dragonfly{groups: groups, routers: routers, globals: globals}, nil
}

func (d *dragonfly) Name() string {
	return fmt.Sprintf("dragonfly(a=%d,h=%d,g=%d)", d.routers, d.globals, d.groups)
}
func (d *dragonfly) Nodes() int  { return d.groups * d.routers }
func (d *dragonfly) Degree() int { return d.routers - 1 + d.globals }

func (d *dragonfly) split(node int) (group, router int) {
	return node / d.routers, node % d.routers
}

// intraPort is the clique port at router r towards router q (q != r).
func intraPort(r, q int) int {
	if q < r {
		return q
	}
	return q - 1
}

func (d *dragonfly) Neighbor(node, port int) int {
	g, r := d.split(node)
	if port < 0 {
		return -1
	}
	if port < d.routers-1 { // intra-group clique
		q := port
		if q >= r {
			q++
		}
		return g*d.routers + q
	}
	if port >= d.routers-1+d.globals {
		return -1
	}
	// Global link ℓ of this group; its far group skips g in the numbering.
	l := r*d.globals + (port - (d.routers - 1))
	dst := l
	if dst >= g {
		dst++
	}
	if dst >= d.groups {
		return -1 // spare global port on an under-full machine
	}
	back := g
	if g > dst {
		back = g - 1
	}
	return dst*d.routers + back/d.globals
}

func (d *dragonfly) Neighbors(node int) []int {
	nb := make([]int, d.Degree())
	for p := range nb {
		nb[p] = d.Neighbor(node, p)
	}
	return nb
}

func (d *dragonfly) Route(at, to int) int {
	if at == to {
		panic("topology: Route(at, at)")
	}
	g, r := d.split(at)
	tg, tr := d.split(to)
	if g == tg {
		return intraPort(r, tr)
	}
	// Global link towards tg leaves from the gateway router owning link ℓ.
	l := tg
	if tg > g {
		l = tg - 1
	}
	gw := l / d.globals
	if r == gw {
		return d.routers - 1 + l%d.globals
	}
	return intraPort(r, gw)
}

// MinimalPorts: with one global link per group pair the minimal path is
// unique, so the deterministic route is the only minimal port.
func (d *dragonfly) MinimalPorts(at, to int) []int { return []int{d.Route(at, to)} }

func (d *dragonfly) Dims() int       { return 1 }
func (d *dragonfly) PortDim(int) int { return 0 }

// Dateline marks every global port: wormhole packets switch to the high
// virtual channel when (and after) crossing groups, which breaks the
// global/intra channel-dependency cycle.
func (d *dragonfly) Dateline(node, port int) bool { return port >= d.routers-1 }
