"""The idealized scheduling algorithm of Sec. 2.2 — failures included.

The heuristic (:mod:`repro.core.prio`) deliberately *transcends* the
theoretical algorithm; this module implements the theoretical algorithm
faithfully, so the relationship between the two — "agrees with the
theory's algorithm when it works, but provides a schedule for every
computation" — can be demonstrated and tested rather than asserted.

Steps (and their failure modes):

1. remove shortcut arcs (never fails);
2. decompose into maximal connected bipartite building blocks — **fails**
   when the remnant has no bipartite block whose sources are remnant
   sources;
3. find an IC-optimal schedule for each block — **fails** when a block
   admits none (decided exactly via
   :mod:`repro.theory.bipartite_exact`) or is too wide to certify;
4. check that every pair of blocks is comparable under the ≻ relation
   (eq. 1) — **fails** on incomparable pairs;
5. check that superdag arcs agree with ≻ — **fails** otherwise;
6. stable-sort a topological order of the superdag by ≻ and emit the
   block schedules, then all sinks.

On success the result is an IC-optimal schedule of the input dag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key

from ..core.decompose import Decomposition, decompose
from ..dag.graph import Dag
from ..dag.transitive import remove_shortcuts
from .bipartite_exact import EXACT_BIPARTITE_LIMIT, exact_bipartite_schedule
from .eligibility import partial_profile
from .priority import priority_over

__all__ = ["TheoreticalResult", "theoretical_algorithm"]


@dataclass
class TheoreticalResult:
    """Outcome of the theoretical algorithm.

    ``schedule`` is an IC-optimal schedule when ``success``; otherwise
    ``failed_step`` in {2, 3, 4, 5} and ``reason`` explain the failure.
    """

    dag: Dag
    success: bool
    schedule: list[int] | None = None
    failed_step: int | None = None
    reason: str | None = None
    decomposition: Decomposition | None = field(default=None, repr=False)


def theoretical_algorithm(
    dag: Dag, *, width_limit: int = EXACT_BIPARTITE_LIMIT
) -> TheoreticalResult:
    """Run the idealized algorithm; see the module docstring.

    ``width_limit`` caps the exact per-block IC-optimality search (blocks
    wider than this fail step 3 as "too wide to certify" — the theory
    would consult its family catalog, which the exact solver subsumes for
    blocks within the limit).
    """
    if dag.n == 0:
        return TheoreticalResult(dag=dag, success=True, schedule=[])
    reduced, _ = remove_shortcuts(dag)  # Step 1
    dec = decompose(reduced)  # Step 2 (the generalized decomposition...)
    non_bipartite = [c for c in dec.components if not c.is_bipartite]
    if non_bipartite:
        # ...which resorts to non-bipartite closures exactly when the
        # theoretical decomposition is stuck.
        worst = non_bipartite[0]
        return TheoreticalResult(
            dag=dag,
            success=False,
            failed_step=2,
            reason=(
                f"no maximal connected bipartite block exists at block "
                f"{worst.index} ({worst.size} jobs)"
            ),
            decomposition=dec,
        )

    # Step 3: an IC-optimal schedule per block, decided exactly.  Isolated
    # sinks form pseudo-components with no sources; they are not blocks in
    # the theory's sense (a bipartite dag has both parts non-empty) and
    # belong to the final all-sinks phase.  Crucially they must stay out
    # of the ≻ machinery: their one-point profile [1] satisfies eq. (1)
    # against *everything* in both directions, which would poison the
    # transitivity the stable sort relies on.
    schedules: dict[int, list[int]] = {}
    profiles: dict[int, object] = {}
    blocks = [c for c in dec.components if c.nonsinks]
    for comp in blocks:
        subdag, mapping = reduced.induced_subgraph(comp.nodes)
        if len(comp.nonsinks) > width_limit:
            return TheoreticalResult(
                dag=dag,
                success=False,
                failed_step=3,
                reason=(
                    f"block {comp.index} has {len(comp.nonsinks)} sources, "
                    f"beyond the certification limit ({width_limit})"
                ),
                decomposition=dec,
            )
        order = exact_bipartite_schedule(subdag, limit=width_limit)
        if order is None:
            return TheoreticalResult(
                dag=dag,
                success=False,
                failed_step=3,
                reason=f"block {comp.index} admits no IC-optimal schedule",
                decomposition=dec,
            )
        schedules[comp.index] = [mapping[u] for u in order]
        profiles[comp.index] = partial_profile(subdag, order)

    # Step 4: every pair of blocks must be ≻-comparable.
    indices = [c.index for c in blocks]
    succeeds: dict[tuple[int, int], bool] = {}
    for a in indices:
        for b in indices:
            if a < b:
                ab = priority_over(profiles[a], profiles[b]) >= 1.0 - 1e-12
                ba = priority_over(profiles[b], profiles[a]) >= 1.0 - 1e-12
                succeeds[(a, b)] = ab
                succeeds[(b, a)] = ba
                if not (ab or ba):
                    return TheoreticalResult(
                        dag=dag,
                        success=False,
                        failed_step=4,
                        reason=f"blocks {a} and {b} are ≻-incomparable",
                        decomposition=dec,
                    )

    # Step 5: superdag arcs must agree with ≻.
    for i, kids in enumerate(dec.super_children):
        for j in kids:
            if not succeeds.get((i, j), True):
                return TheoreticalResult(
                    dag=dag,
                    success=False,
                    failed_step=5,
                    reason=(
                        f"superdag arc {i} -> {j} conflicts with the "
                        f"priority relation"
                    ),
                    decomposition=dec,
                )

    # Step 6: stable sort of a topological order (detachment order is one)
    # by the ≻ relation; ties keep their order.
    def compare(a: int, b: int) -> int:
        ab = succeeds.get((a, b), True)
        ba = succeeds.get((b, a), True)
        if ab and not ba:
            return -1
        if ba and not ab:
            return 1
        return 0

    ordered = sorted(indices, key=cmp_to_key(compare))
    schedule: list[int] = []
    for index in ordered:
        schedule.extend(schedules[index])
    schedule.extend(dag.sinks())
    return TheoreticalResult(
        dag=dag, success=True, schedule=schedule, decomposition=dec
    )
