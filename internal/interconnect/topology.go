package interconnect

import (
	"errors"
	"fmt"

	"t3sim/internal/check"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// TopoKind enumerates the supported topology families.
type TopoKind int

const (
	// TopoRing is the Table 1 network: a bidirectional ring, one forward and
	// one backward link per device.
	TopoRing TopoKind = iota
	// TopoTorus is a 2D bidirectional torus with row-major device ids:
	// device r*Cols+c links to its east/west/south/north wrap-around
	// neighbors.
	TopoTorus
	// TopoSwitch is a fully-connected switch: one direct link per ordered
	// device pair, the non-blocking crossbar abstraction.
	TopoSwitch
	// TopoHierarchical is a two-level network: every node is an internal
	// full-mesh of fast intra-node links, and node leaders (device
	// node*PerNode) form a full mesh of slower inter-node links.
	TopoHierarchical
)

// String names the kind the way the CLIs and experiment tables spell it.
func (k TopoKind) String() string {
	switch k {
	case TopoRing:
		return "ring"
	case TopoTorus:
		return "torus"
	case TopoSwitch:
		return "switch"
	case TopoHierarchical:
		return "hier"
	}
	return fmt.Sprintf("TopoKind(%d)", int(k))
}

// TopoSpec is a pure description of an interconnect graph: which devices
// exist and which directed links join them, with per-link bandwidth and
// latency. A spec carries no simulation state; Build / BuildCluster
// instantiate live links on an engine or a cluster. The zero TopoSpec is
// "unset" (IsZero), which consumers default to RingTopo.
type TopoSpec struct {
	Kind TopoKind
	// Devices is the total device count (Rows*Cols for a torus,
	// Nodes*PerNode for a hierarchical network).
	Devices int
	// Rows, Cols shape a TopoTorus.
	Rows, Cols int
	// Nodes, PerNode shape a TopoHierarchical network.
	Nodes, PerNode int
	// Link configures every link (TopoHierarchical: the intra-node links).
	Link Config
	// InterLink configures TopoHierarchical's inter-node leader links; the
	// zero value falls back to Link. Other kinds ignore it.
	InterLink Config
}

// RingTopo describes a bidirectional ring of n devices.
func RingTopo(n int, cfg Config) TopoSpec {
	return TopoSpec{Kind: TopoRing, Devices: n, Link: cfg}
}

// TorusTopo describes a rows x cols bidirectional 2D torus.
func TorusTopo(rows, cols int, cfg Config) TopoSpec {
	return TopoSpec{Kind: TopoTorus, Devices: rows * cols, Rows: rows, Cols: cols, Link: cfg}
}

// SwitchTopo describes a fully-connected switch over n devices.
func SwitchTopo(n int, cfg Config) TopoSpec {
	return TopoSpec{Kind: TopoSwitch, Devices: n, Link: cfg}
}

// HierarchicalTopo describes nodes x perNode devices: full-mesh intra links
// inside each node, full-mesh inter links between node leaders.
func HierarchicalTopo(nodes, perNode int, intra, inter Config) TopoSpec {
	return TopoSpec{Kind: TopoHierarchical, Devices: nodes * perNode,
		Nodes: nodes, PerNode: perNode, Link: intra, InterLink: inter}
}

// IsZero reports whether the spec is unset.
func (s TopoSpec) IsZero() bool { return s == TopoSpec{} }

// interConfig returns the inter-node link configuration with the Link
// fallback applied.
func (s TopoSpec) interConfig() Config {
	if s.InterLink == (Config{}) {
		return s.Link
	}
	return s.InterLink
}

// Validate reports whether the spec describes a buildable topology.
func (s TopoSpec) Validate() error {
	if err := s.Link.Validate(); err != nil {
		return err
	}
	switch s.Kind {
	case TopoRing:
		if s.Devices < 2 {
			return fmt.Errorf("interconnect: ring needs >= 2 devices, got %d", s.Devices)
		}
	case TopoTorus:
		if s.Rows < 2 || s.Cols < 2 {
			return fmt.Errorf("interconnect: torus needs >= 2 rows and cols, got %dx%d", s.Rows, s.Cols)
		}
		if s.Devices != s.Rows*s.Cols {
			return fmt.Errorf("interconnect: torus %dx%d disagrees with %d devices", s.Rows, s.Cols, s.Devices)
		}
	case TopoSwitch:
		if s.Devices < 2 {
			return fmt.Errorf("interconnect: switch needs >= 2 devices, got %d", s.Devices)
		}
	case TopoHierarchical:
		if s.Nodes < 2 || s.PerNode < 1 {
			return fmt.Errorf("interconnect: hierarchical needs >= 2 nodes of >= 1 devices, got %dx%d", s.Nodes, s.PerNode)
		}
		if s.Devices != s.Nodes*s.PerNode {
			return fmt.Errorf("interconnect: hierarchical %dx%d disagrees with %d devices", s.Nodes, s.PerNode, s.Devices)
		}
		if err := s.interConfig().Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("interconnect: unknown topology kind %d", int(s.Kind))
	}
	return nil
}

// edgeSpec is one directed link of the graph description.
type edgeSpec struct {
	src, dst int
	cfg      Config
}

// edges returns the directed link list in the canonical order: device-major,
// then a fixed per-device out-edge order. This order is a determinism
// contract — BuildCluster registers one mailbox per edge in exactly this
// order, which fixes the cluster's barrier drain order (and therefore the
// cross-engine delivery order) for every worker count. For TopoRing it is
// forward-then-backward per device: edge 2i is i → i+1, edge 2i+1 is
// i → i−1.
func (s TopoSpec) edges() []edgeSpec {
	var out []edgeSpec
	n := s.Devices
	switch s.Kind {
	case TopoRing:
		for d := 0; d < n; d++ {
			out = append(out,
				edgeSpec{d, (d + 1) % n, s.Link},
				edgeSpec{d, (d - 1 + n) % n, s.Link})
		}
	case TopoTorus:
		at := func(r, c int) int {
			return ((r+s.Rows)%s.Rows)*s.Cols + (c+s.Cols)%s.Cols
		}
		for r := 0; r < s.Rows; r++ {
			for c := 0; c < s.Cols; c++ {
				d := at(r, c)
				out = append(out,
					edgeSpec{d, at(r, c+1), s.Link}, // east
					edgeSpec{d, at(r, c-1), s.Link}, // west
					edgeSpec{d, at(r+1, c), s.Link}, // south
					edgeSpec{d, at(r-1, c), s.Link}) // north
			}
		}
	case TopoSwitch:
		for d := 0; d < n; d++ {
			for p := 0; p < n; p++ {
				if p != d {
					out = append(out, edgeSpec{d, p, s.Link})
				}
			}
		}
	case TopoHierarchical:
		inter := s.interConfig()
		for d := 0; d < n; d++ {
			node := d / s.PerNode
			for p := node * s.PerNode; p < (node+1)*s.PerNode; p++ {
				if p != d {
					out = append(out, edgeSpec{d, p, s.Link})
				}
			}
			if d == node*s.PerNode { // node leader
				for peer := 0; peer < s.Nodes; peer++ {
					if peer != node {
						out = append(out, edgeSpec{d, peer * s.PerNode, inter})
					}
				}
			}
		}
	}
	return out
}

// Neighbors returns device d's out-neighbors in canonical edge order.
func (s TopoSpec) Neighbors(d int) []int {
	var out []int
	for _, e := range s.edges() {
		if e.src == d {
			out = append(out, e.dst)
		}
	}
	return out
}

// EdgeConfig returns the configuration of the (first) direct link src → dst
// and whether such a link exists.
func (s TopoSpec) EdgeConfig(src, dst int) (Config, bool) {
	for _, e := range s.edges() {
		if e.src == src && e.dst == dst {
			return e.cfg, true
		}
	}
	return Config{}, false
}

// MinLinkLatency returns the smallest propagation latency over every link —
// the widest conservative lookahead a cluster hosting this topology admits.
func (s TopoSpec) MinLinkLatency() units.Time {
	es := s.edges()
	if len(es) == 0 {
		return 0
	}
	min := es[0].cfg.LinkLatency
	for _, e := range es[1:] {
		if e.cfg.LinkLatency < min {
			min = e.cfg.LinkLatency
		}
	}
	return min
}

// ErrZeroLinkLatency reports a topology with a zero-latency link: it admits
// no conservative lookahead, so no sim.Cluster can host it.
var ErrZeroLinkLatency = errors.New("interconnect: zero link latency admits no cluster lookahead")

// NewCluster returns a cluster of one engine per device whose lookahead is
// the spec's MinLinkLatency — the cluster BuildCluster expects.
func (s TopoSpec) NewCluster() (*sim.Cluster, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	lat := s.MinLinkLatency()
	if lat <= 0 {
		return nil, ErrZeroLinkLatency
	}
	return sim.NewCluster(s.Devices, lat), nil
}

// Topology is a built interconnect graph: the spec plus one live Link per
// directed edge and a precomputed deterministic next-hop table. Multi-hop
// Sends store-and-forward at message granularity: each intermediate hop
// re-serializes on its own outgoing link, with forwarding scheduled on the
// receiving device's engine, so a cluster topology parallelizes per device.
type Topology struct {
	spec    TopoSpec
	edges   []edgeSpec
	links   []*Link
	first   map[[2]int]int // (src,dst) -> index of first direct edge
	nexthop []int          // n*n next-hop table; -1 on the diagonal
}

// Build instantiates the topology's links on one shared engine.
func (s TopoSpec) Build(eng *sim.Engine) (*Topology, error) {
	return s.build(func(e edgeSpec) (*Link, error) { return NewLink(eng, e.cfg) })
}

// BuildCluster instantiates the topology across a cluster's per-device
// engines: each link serializes on its source device's engine and delivers
// into its destination's mailbox, registered as an attributed link edge with
// the link's own latency — the per-link lookahead the dynamic horizons feed
// on. Mailboxes are registered in canonical edge order (see edges), which
// fixes drain order for every worker count. Every link latency must cover
// the cluster's lookahead; build the cluster with MinLinkLatency.
func (s TopoSpec) BuildCluster(cl *sim.Cluster) (*Topology, error) {
	if n := len(cl.Engines()); n != s.Devices {
		return nil, fmt.Errorf("interconnect: %d-device topology on %d-engine cluster", s.Devices, n)
	}
	return s.build(func(e edgeSpec) (*Link, error) { return NewClusterLink(cl, e.src, e.dst, e.cfg) })
}

func (s TopoSpec) build(mk func(edgeSpec) (*Link, error)) (*Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{spec: s, edges: s.edges(), first: make(map[[2]int]int)}
	t.links = make([]*Link, len(t.edges))
	for i, e := range t.edges {
		l, err := mk(e)
		if err != nil {
			return nil, err
		}
		t.links[i] = l
		key := [2]int{e.src, e.dst}
		if _, ok := t.first[key]; !ok {
			t.first[key] = i
		}
	}
	t.routeAll()
	return t, nil
}

// routeAll fills the next-hop table: breadth-first search from every source
// over out-edges in canonical order, so ties between equal-length paths
// always break toward the earliest-listed edge — the deterministic-routing
// contract the differential tests and the analytic model both rely on.
func (t *Topology) routeAll() {
	n := t.spec.Devices
	t.nexthop = make([]int, n*n)
	adj := make([][]int, n) // out-neighbor lists in edge order, deduplicated
	for _, e := range t.edges {
		seen := false
		for _, d := range adj[e.src] {
			if d == e.dst {
				seen = true
				break
			}
		}
		if !seen {
			adj[e.src] = append(adj[e.src], e.dst)
		}
	}
	prev := make([]int, n)
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = src
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if prev[v] == -1 {
					prev[v] = u
					queue = append(queue, v)
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src {
				t.nexthop[src*n+dst] = -1
				continue
			}
			// Walk back from dst to the hop adjacent to src.
			hop := dst
			for prev[hop] != src {
				hop = prev[hop]
			}
			t.nexthop[src*n+dst] = hop
		}
	}
}

// Spec returns the graph description.
func (t *Topology) Spec() TopoSpec { return t.spec }

// Devices returns the device count.
func (t *Topology) Devices() int { return t.spec.Devices }

// NumLinks returns the number of directed links.
func (t *Topology) NumLinks() int { return len(t.links) }

// LinkAt returns the i-th link in canonical edge order.
func (t *Topology) LinkAt(i int) *Link { return t.links[i] }

// Link returns the (first) direct link src → dst, or nil when the devices
// are not adjacent.
func (t *Topology) Link(src, dst int) *Link {
	if i, ok := t.first[[2]int{src, dst}]; ok {
		return t.links[i]
	}
	return nil
}

// NextHop returns the first hop of the deterministic shortest route
// src → dst (-1 when src == dst).
func (t *Topology) NextHop(src, dst int) int {
	return t.nexthop[src*t.spec.Devices+dst]
}

// Hops returns the length of the deterministic route src → dst.
func (t *Topology) Hops(src, dst int) int {
	h := 0
	for src != dst {
		src = t.NextHop(src, dst)
		h++
	}
	return h
}

// Route returns the deterministic shortest route src → dst as the hop
// sequence after src (ending in dst). Empty when src == dst.
func (t *Topology) Route(src, dst int) []int {
	var out []int
	for src != dst {
		src = t.NextHop(src, dst)
		out = append(out, src)
	}
	return out
}

// Send routes n bytes from src to dst along the deterministic shortest
// path, store-and-forwarding the whole message at each intermediate hop;
// onDelivered (may be nil) runs when the final hop delivers. On a cluster
// every forward runs on the forwarding device's own engine. Sending to
// yourself is a routing bug, not a transfer.
func (t *Topology) Send(src, dst int, n units.Bytes, onDelivered sim.Handler) {
	if src == dst {
		panic("interconnect: topology send to self")
	}
	hop := t.NextHop(src, dst)
	link := t.Link(src, hop)
	if hop == dst {
		link.Send(n, onDelivered)
		return
	}
	link.Send(n, func() { t.Send(hop, dst, n, onDelivered) })
}

// AttachMetrics registers every link's instruments on m, named
// "e<i>.<src>-<dst>" in canonical edge order. A nil sink detaches.
func (t *Topology) AttachMetrics(m metrics.Sink) {
	for i, e := range t.edges {
		t.links[i].AttachMetrics(m, fmt.Sprintf("e%d.%d-%d", i, e.src, e.dst))
	}
}

// AttachChecker registers every link's serialization witness on c, named
// like AttachMetrics. A nil checker detaches.
func (t *Topology) AttachChecker(c *check.Checker) {
	for i, e := range t.edges {
		t.links[i].AttachChecker(c, fmt.Sprintf("e%d.%d-%d", i, e.src, e.dst))
	}
}

// SentBytes sums every link's accepted bytes (transit hops count once per
// traversed link, like the hardware counters would).
func (t *Topology) SentBytes() units.Bytes {
	var total units.Bytes
	for _, l := range t.links {
		total += l.SentBytes()
	}
	return total
}
