"""Technique registry: build reordering techniques by name.

The experiment drivers and the CLI refer to techniques by the names the
paper uses; this registry maps those names to configured instances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ValidationError
from repro.reorder.base import ReorderingTechnique
from repro.reorder.boba import BobaOrder
from repro.reorder.dispatch import resolve_impl
from repro.reorder.bisection import RecursiveBisection
from repro.reorder.degree import DBG, DegSort, HubCluster, HubSort
from repro.reorder.gorder import GOrder
from repro.reorder.louvain_order import LouvainOrder
from repro.reorder.rabbit import RabbitOrder, RabbitShardedOrder
from repro.reorder.rabbitpp import HubPolicy, RabbitPlusPlus
from repro.reorder.rcm import ReverseCuthillMcKee
from repro.reorder.simple import OriginalOrder, RandomOrder
from repro.reorder.slashburn import SlashBurn
from repro.reorder.traversal import BFSOrder, DFSOrder

#: The six orderings of the paper's Figure 2, in presentation order,
#: plus the proposed RABBIT++.
PAPER_TECHNIQUES = (
    "random",
    "original",
    "degsort",
    "dbg",
    "gorder",
    "rabbit",
    "rabbit++",
)

_FACTORIES: Dict[str, Callable[[], ReorderingTechnique]] = {
    "original": OriginalOrder,
    "random": RandomOrder,
    "degsort": DegSort,
    "dbg": DBG,
    "hubsort": HubSort,
    "hubcluster": HubCluster,
    "gorder": GOrder,
    "louvain": LouvainOrder,
    "bfs": BFSOrder,
    "dfs": DFSOrder,
    "bisection": RecursiveBisection,
    "rcm": ReverseCuthillMcKee,
    "slashburn": SlashBurn,
    "rabbit": RabbitOrder,
    "rabbit-sharded": RabbitShardedOrder,
    "boba": BobaOrder,
    "rabbit++": RabbitPlusPlus,
    "rabbit+insular": lambda: RabbitPlusPlus(
        group_insular=True, hub_policy=HubPolicy.NONE
    ),
    "rabbit+hubsort": lambda: RabbitPlusPlus(
        group_insular=False, hub_policy=HubPolicy.SORT
    ),
    "rabbit+hubgroup": lambda: RabbitPlusPlus(
        group_insular=False, hub_policy=HubPolicy.GROUP
    ),
    "rabbit+hubsort+insular": lambda: RabbitPlusPlus(
        group_insular=True, hub_policy=HubPolicy.SORT
    ),
    "rabbit++/hubs-first": lambda: RabbitPlusPlus(
        group_insular=True, hub_policy=HubPolicy.GROUP, segment_policy="hubs-first"
    ),
}


def available_techniques() -> List[str]:
    """All registered technique names, sorted."""
    return sorted(_FACTORIES)


def make_technique(name: str, impl: Optional[str] = None) -> ReorderingTechnique:
    """Instantiate a technique by its registry name.

    ``impl`` pins the engine (``"auto"``/``"fast"``/``"reference"``) for
    techniques that have a vectorized fast path; ``None`` keeps the
    default choice from the graph size.  Pinning exists for the
    differential tests and ``repro bench-reorder``.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown reordering technique {name!r}; available: {available_techniques()}"
        ) from None
    technique = factory()
    if impl is not None:
        resolve_impl(impl)  # validate eagerly so typos fail at build time
        technique.impl = impl
    return technique
