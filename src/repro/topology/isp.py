"""Synthetic ISP backbone topology generator.

The paper's first (and, it argues, most relevant) test network is a
snapshot of a large ISP's internal topology: ~200 routers, ~400 links,
average degree 3.56, treated as a single OSPF area, with symmetric
OSPF weights "proportional to bandwidth capacity".  That snapshot is
proprietary, so this module generates a structurally equivalent
network, built the way real backbones are:

* **PoP pairs** — the core is a ring of points of presence, each a
  *pair* of core routers joined by an intra-PoP link.  Consecutive
  PoPs are joined ladder-style (both rails), so the core is
  2-edge-connected by construction; random chords add meshing.
* **Dual-homed access routers** — every access router uplinks to both
  core routers *of one PoP*.  This is the dominant ISP edge pattern,
  and it is what gives the real ISP of the paper its signature
  statistic: Table 3 shows ~89% of links have a 2-hop bypass, which
  happens exactly when links sit in triangles — an access uplink is
  bypassed through the twin uplink plus the intra-PoP link, and an
  intra-PoP link through any shared access router.
* **Capacity-derived weights** — per-tier capacities translated to
  symmetric OSPF-style weights ``weight = REFERENCE_BW / capacity``;
  the *unweighted* experiments reuse the same topology with hop-count
  routing.

The generator is fully deterministic given ``seed``.
"""

from __future__ import annotations

import random

from ..exceptions import TopologyError
from ..graph.connectivity import is_connected, is_two_edge_connected
from ..graph.graph import Graph

#: Link capacities in Mbit/s (mostly-OC-48 core with some OC-192;
#: OC-48 / OC-12 / OC-3 access).  The mix is calibrated jointly against
#: Table 3 (min-cost bypasses must almost always be the 2-hop ones, so
#: the core must be mostly uniform) and Table 2's redundancy column
#: (equal-cost alternatives must be rare, so not perfectly uniform).
CORE_CAPACITIES = (2488, 2488, 9953)
ACCESS_CAPACITIES = (2488, 622, 155)

#: Reference bandwidth for OSPF-style inverse-capacity weights (Mbit/s).
REFERENCE_BW = 10_000.0


def _ospf_weight(capacity_mbps: float) -> float:
    """Cisco-convention inverse-capacity weight, floored at 1."""
    return float(max(1, round(REFERENCE_BW / capacity_mbps)))


def generate_isp_topology(
    n: int = 200,
    seed: int = 1,
    core_fraction: float = 0.2,
    core_chord_factor: float = 0.25,
    weighted: bool = True,
    max_attempts: int = 20,
) -> Graph:
    """Generate a two-tier, PoP-pair-structured ISP backbone.

    Parameters
    ----------
    n:
        Total number of routers (paper: ~200).
    seed:
        RNG seed; the same seed always yields the same topology.
    core_fraction:
        Fraction of routers in the backbone core (rounded to PoP pairs).
    core_chord_factor:
        Random chords added across the core, as a multiple of the core
        size.  The defaults calibrate total links to ~2n (paper: ~400
        links for 200 nodes).
    weighted:
        With ``True``, links carry OSPF-style inverse-capacity weights;
        with ``False`` all weights are 1.
    max_attempts:
        Regeneration attempts until the whole graph is connected and
        the core 2-edge-connected (the ladder already guarantees it;
        retries exist for degenerate tiny parameterizations).

    Returns a connected :class:`~repro.graph.graph.Graph` whose core is
    2-edge-connected.  Node names are ``("core", i)`` / ``("acc", i)``.
    """
    if n < 10:
        raise TopologyError("generate_isp_topology needs n >= 10")
    if not 0.05 <= core_fraction <= 0.9:
        raise TopologyError("core_fraction out of range [0.05, 0.9]")

    for attempt in range(max_attempts):
        rng = random.Random(f"{seed}/{attempt}")
        graph = _generate_once(n, rng, core_fraction, core_chord_factor, weighted)
        core_subgraph = _core_subgraph(graph)
        if is_connected(graph) and is_two_edge_connected(core_subgraph):
            return graph
    raise TopologyError(
        f"failed to generate a 2-edge-connected core in {max_attempts} attempts"
    )


def _core_subgraph(graph: Graph) -> Graph:
    core = Graph()
    for u in graph.nodes:
        if u[0] == "core":
            core.add_node(u)
    for u, v, w in graph.weighted_edges():
        if u[0] == "core" and v[0] == "core":
            core.add_edge(u, v, weight=w)
    return core


def _generate_once(
    n: int,
    rng: random.Random,
    core_fraction: float,
    core_chord_factor: float,
    weighted: bool,
) -> Graph:
    n_pops = max(2, round(n * core_fraction / 2))
    n_core = 2 * n_pops
    n_access = n - n_core
    graph = Graph()

    def weight_for(capacities: tuple[int, ...]) -> float:
        """Draw an OSPF-style weight for the capacity tier."""
        if not weighted:
            return 1.0
        return _ospf_weight(rng.choice(capacities))

    # PoP pairs on a ring: intra-PoP links, the rail-0 ring, and an
    # irregular second inter-PoP link (straight rail-1 or a diagonal).
    # PoP i has cores 2i ("rail 0") and 2i+1 ("rail 1").  The paper's
    # ISP shows low redundancy (few equal-cost alternatives), so the
    # second link is deliberately irregular: a perfectly symmetric
    # ladder would make almost every backup path cost-equal.
    def core(pop: int, rail: int):
        """The core router of PoP *pop* on rail *rail*."""
        return ("core", 2 * pop + rail)

    for pop in range(n_pops):
        graph.add_edge(core(pop, 0), core(pop, 1), weight=weight_for(CORE_CAPACITIES))
        nxt = (pop + 1) % n_pops
        if n_pops == 2 and pop == 1:
            break  # avoid doubling the two inter-PoP edges of a 2-PoP ring
        graph.add_edge(core(pop, 0), core(nxt, 0), weight=weight_for(CORE_CAPACITIES))
        if rng.random() < 0.5:
            second = (core(pop, 1), core(nxt, 1))  # straight rail-1
        else:
            second = (core(pop, 1), core(nxt, 0))  # diagonal
        if not graph.has_edge(*second):
            graph.add_edge(*second, weight=weight_for(CORE_CAPACITIES))

    # Random core chords for extra meshing.
    core_nodes = [("core", i) for i in range(n_core)]
    n_chords = round(core_chord_factor * n_core)
    added, attempts = 0, 0
    while added < n_chords and attempts < 50 * max(1, n_chords):
        attempts += 1
        u, v = rng.sample(core_nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=weight_for(CORE_CAPACITIES))
            added += 1

    # Access routers: dual-homed to BOTH cores of one PoP, so each uplink
    # lies in a triangle (the paper ISP's dominant pattern).  The two
    # uplinks carry *different* capacities — a primary and a cheaper
    # secondary, as dual-homed customers usually buy — so the twin route
    # is a 2-hop bypass but not a cost-equal alternative (the paper's
    # weighted redundancy is only 16.5%).
    for i in range(n_access):
        node = ("acc", i)
        pop = rng.randrange(n_pops)
        primary_rail = rng.randrange(2)
        w_primary = weight_for(ACCESS_CAPACITIES)
        w_secondary = w_primary if not weighted else w_primary + weight_for(
            ACCESS_CAPACITIES
        )
        graph.add_edge(node, core(pop, primary_rail), weight=w_primary)
        graph.add_edge(node, core(pop, 1 - primary_rail), weight=w_secondary)
    return graph


def generate_isp_pair(n: int = 200, seed: int = 1, **kwargs) -> tuple[Graph, Graph]:
    """The paper's two ISP variants over one topology: weighted and unweighted.

    Both graphs share the exact same edge set; only the weights differ.
    """
    weighted = generate_isp_topology(n=n, seed=seed, weighted=True, **kwargs)
    unweighted = Graph()
    for u, v, _ in weighted.weighted_edges():
        unweighted.add_edge(u, v, weight=1.0)
    return weighted, unweighted
