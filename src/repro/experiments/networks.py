"""The experiment suite's four network configurations (Table 1).

The paper evaluates on: ISP weighted, ISP unweighted (same topology,
hop-count routing), the Internet router-level map, and the AS graph.
:func:`suite` builds our stand-ins at three scales:

* ``"tiny"`` — CI-speed versions for integration tests;
* ``"small"`` — the default benchmark scale (the ISP at full published
  size, the two big graphs shrunk; their power-law shape — and hence
  every Table 2/3 statistic — is size-stable);
* ``"paper"`` — full Table 1 sizes (4,746 and 40,377 nodes).  With the
  native kernels a run takes seconds: about 9 s for Table 2
  (per-pair), 2 s for Table 3 and 1 s for Figure 10 at jobs 1, seed 1
  on a 2-vCPU VM (entries 20–22 of ``results/history/ledger.jsonl``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..failures.sampler import ISP_SAMPLE_PAIRS, LARGE_GRAPH_SAMPLE_PAIRS
from ..graph.graph import Graph
from ..topology.isp import generate_isp_pair
from ..topology.powerlaw import generate_as_graph, generate_internet_graph


@dataclass(frozen=True)
class ExperimentNetwork:
    """One column of the evaluation: a topology plus its protocol settings."""

    name: str
    graph: Graph
    weighted: bool
    sample_pairs: int


_SCALES = {
    # name -> (isp_n, internet_n, as_n, isp_pairs, large_pairs)
    "tiny": (60, 250, 250, 25, 8),
    "small": (200, 4000, 2000, ISP_SAMPLE_PAIRS, LARGE_GRAPH_SAMPLE_PAIRS),
    "paper": (200, 40377, 4746, ISP_SAMPLE_PAIRS, LARGE_GRAPH_SAMPLE_PAIRS),
}


def scales() -> list[str]:
    """The available experiment scale names."""
    return list(_SCALES)


def suite(scale: str = "small", seed: int = 1) -> list[ExperimentNetwork]:
    """Build the four evaluation networks at *scale* (fresh objects)."""
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {list(_SCALES)}")
    isp_n, internet_n, as_n, isp_pairs, large_pairs = _SCALES[scale]
    isp_weighted, isp_unweighted = generate_isp_pair(n=isp_n, seed=seed)
    return [
        ExperimentNetwork("ISP, Weighted", isp_weighted, True, isp_pairs),
        ExperimentNetwork("ISP, Unweighted", isp_unweighted, False, isp_pairs),
        ExperimentNetwork(
            "Internet", generate_internet_graph(n=internet_n, seed=seed), False, large_pairs
        ),
        ExperimentNetwork(
            "AS Graph", generate_as_graph(n=as_n, seed=seed), False, large_pairs
        ),
    ]


_SUITE_CACHE: dict[tuple[str, int], list[ExperimentNetwork]] = {}


def cached_suite(scale: str = "small", seed: int = 1) -> list[ExperimentNetwork]:
    """Process-wide memoized :func:`suite`.

    Experiments and benchmarks that go through this accessor share
    topology *objects*, which is what lets the base-set/oracle cache
    (:mod:`repro.core.cache`, keyed by graph identity) serve them all
    from one set of warm Dijkstra rows.  Nothing in the pipeline
    mutates the graphs — failures are zero-copy ``FilteredView``s — so
    sharing is safe.
    """
    key = (scale, seed)
    networks = _SUITE_CACHE.get(key)
    if networks is None:
        networks = suite(scale=scale, seed=seed)
        _SUITE_CACHE[key] = networks
    return networks
