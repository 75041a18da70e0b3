"""Vectorized community-detection engine.

An array-backed implementation of RABBIT detection
(:func:`repro.community.rabbit.rabbit_communities`), selected through
the reorder dispatch layer (:mod:`repro.reorder.dispatch`).  It
reproduces the reference bit-for-bit — same float accumulation order,
same tie-breaking, same merge bookkeeping — so permutations and memo
caches are byte-identical across implementations.
"""

from repro.community.fast.rabbit import rabbit_communities_fast

__all__ = ["rabbit_communities_fast"]
