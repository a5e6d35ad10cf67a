"""The paper's Section 5 sampling methodology, made explicit.

Quoting the paper: *"we randomly chose source-destination pairs, SR and
DR.  Then we simulated a link failure for each link, L, in the basic
LSP connecting SR and DR ... This simulation was repeated 200 times for
the ISP topology and 40 times for the (much larger) other topologies
... We also studied the consequences of pairs of link failures, and of
one and two router failures, using the same methodology."*

Concretely, for each sampled pair we enumerate:

* **one link** — every single link of the pair's base path;
* **two links** — every unordered pair of links of the base path (a
  failure elsewhere does not disturb the path, so restoration for this
  pair is only exercised when at least the path is hit; pairing two
  on-path links is the maximal-stress reading of "the same
  methodology");
* **one router** — every interior router of the base path;
* **two routers** — every unordered pair of interior routers.

All randomness flows through an explicit ``random.Random(seed)`` so
every experiment is exactly repeatable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from ..graph.connectivity import connected_components
from ..graph.graph import Graph, Node
from ..graph.paths import Path
from ..graph.shortest_paths import reachable_from
from .models import FailureScenario

#: Paper sample sizes (Section 5).
ISP_SAMPLE_PAIRS = 200
LARGE_GRAPH_SAMPLE_PAIRS = 40


def sample_pairs(
    graph: Graph,
    count: int,
    seed: int = 1,
    require_connected: bool = True,
    max_attempts_factor: int = 200,
) -> list[tuple[Node, Node]]:
    """Sample *count* distinct random (source, destination) pairs.

    With *require_connected*, only pairs with a path between them are
    returned (sampling is restricted de facto to the giant component).
    Deterministic in *seed*; raises ``ValueError`` if the graph cannot
    supply enough pairs.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=repr)
    if len(nodes) < 2:
        raise ValueError("need at least two nodes to sample pairs")
    pairs: list[tuple[Node, Node]] = []
    seen: set[tuple[Node, Node]] = set()
    connected = _connectivity_test(graph) if require_connected else None
    attempts = 0
    max_attempts = max_attempts_factor * count
    while len(pairs) < count and attempts < max_attempts:
        attempts += 1
        s, t = rng.sample(nodes, 2)
        if (s, t) in seen:
            continue
        seen.add((s, t))
        if connected is not None and not connected(s, t):
            continue
        pairs.append((s, t))
    if len(pairs) < count:
        raise ValueError(
            f"could only sample {len(pairs)}/{count} connected pairs"
        )
    return pairs


def _connectivity_test(graph) -> Callable[[Node, Node], bool]:
    """``connected(s, t)``: is there an s→t path in *graph*?

    Undirected graphs label their components once and compare labels;
    directed graphs keep one reachability DFS per distinct source.
    """
    if not getattr(graph, "directed", False):
        label = {
            v: i
            for i, component in enumerate(connected_components(graph))
            for v in component
        }
        return lambda s, t: label[s] == label[t]
    reachable: dict[Node, set[Node]] = {}

    def connected(s: Node, t: Node) -> bool:
        if s not in reachable:
            reachable[s] = reachable_from(graph, s)
        return t in reachable[s]

    return connected


@dataclass(frozen=True)
class FailureCase:
    """One experimental unit: a demand pair, its base path, one scenario."""

    source: Node
    destination: Node
    primary_path: Path
    scenario: FailureScenario


def link_failure_cases(
    pair: tuple[Node, Node], primary: Path, k: int = 1
) -> Iterator[FailureCase]:
    """All :class:`FailureCase` for *k* simultaneous link failures on *primary*."""
    edges = list(primary.edge_keys())
    source, destination = pair
    for combo in combinations(edges, k):
        yield FailureCase(
            source=source,
            destination=destination,
            primary_path=primary,
            scenario=FailureScenario.link_set(combo),
        )


def router_failure_cases(
    pair: tuple[Node, Node], primary: Path, k: int = 1
) -> Iterator[FailureCase]:
    """All :class:`FailureCase` for *k* interior-router failures on *primary*.

    Endpoint routers are never failed: with the source or destination
    down there is no flow to restore.
    """
    interior = list(primary.interior_nodes())
    source, destination = pair
    for combo in combinations(interior, k):
        yield FailureCase(
            source=source,
            destination=destination,
            primary_path=primary,
            scenario=FailureScenario.router_set(combo),
        )


def cases_for_pair(
    pair: tuple[Node, Node],
    primary: Path,
    mode: str,
) -> Iterator[FailureCase]:
    """Dispatch on Table 2's four failure modes.

    *mode* is one of ``"link"``, ``"two-links"``, ``"router"``,
    ``"two-routers"``.
    """
    if mode == "link":
        yield from link_failure_cases(pair, primary, k=1)
    elif mode == "two-links":
        yield from link_failure_cases(pair, primary, k=2)
    elif mode == "router":
        yield from router_failure_cases(pair, primary, k=1)
    elif mode == "two-routers":
        yield from router_failure_cases(pair, primary, k=2)
    else:
        raise ValueError(f"unknown failure mode {mode!r}")


#: Table 2 row order.
FAILURE_MODES = ("link", "two-links", "router", "two-routers")


def random_link_scenarios(
    graph: Graph, count: int, k: int = 1, seed: int = 1
) -> list[FailureScenario]:
    """*count* random k-link failure scenarios over the whole graph.

    Not part of the Table 2 methodology (which fails on-path links),
    but used by property tests and the theory benchmarks, where the
    failed set must be independent of any particular demand.
    """
    rng = random.Random(seed)
    edges = sorted(graph.edges(), key=repr)
    if len(edges) < k:
        raise ValueError(f"graph has fewer than k={k} edges")
    return [
        FailureScenario.link_set(rng.sample(edges, k)) for _ in range(count)
    ]
