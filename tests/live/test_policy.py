"""LivePrioPolicy: rescheduling inside the simulator."""

import pickle

import numpy as np

import pytest

from repro.live.policy import LivePrioPolicy
from repro.core.prio import prio_schedule
from repro.sim.engine import SimParams, make_policy, simulate
from repro.sim.replication import policy_factory
from repro.workloads.registry import get_workload

PARAMS = SimParams(mu_bit=1.0, mu_bs=8.0)


def test_pop_order_follows_priorities(fig3_dag):
    policy = LivePrioPolicy(fig3_dag)
    priorities = prio_schedule(fig3_dag).priorities
    sources = [u for u in range(fig3_dag.n) if fig3_dag.in_degree(u) == 0]
    for u in sources:
        policy.push(u)
    assert len(policy) == len(sources)
    popped = [policy.pop() for _ in sources]
    assert popped == sorted(sources, key=lambda u: -priorities[u])
    assert len(policy) == 0


def test_on_complete_triggers_reprioritization(fig3_dag):
    policy = LivePrioPolicy(fig3_dag)
    recomputes_before = policy._scheduler.recomputes
    source = next(
        u for u in range(fig3_dag.n) if fig3_dag.in_degree(u) == 0
    )
    policy.on_complete(source, 1.0)
    # Lazy: nothing recomputed until the next pop needs priorities.
    assert policy._scheduler.recomputes == recomputes_before
    for v in fig3_dag.children(source):
        if all(p == source for p in fig3_dag.parents(v)):
            policy.push(v)
    policy.push(
        next(
            u
            for u in range(fig3_dag.n)
            if u != source and fig3_dag.in_degree(u) == 0
        )
    )
    policy.pop()
    assert policy._scheduler.recomputes == recomputes_before + 1


@pytest.mark.parametrize("name", ["airsn-small", "montage-small"])
def test_incremental_and_full_modes_simulate_identically(name):
    dag = get_workload(name)
    fast = simulate(dag, LivePrioPolicy(dag), PARAMS, np.random.default_rng(11))
    slow = simulate(dag, LivePrioPolicy(dag, mode="full"), PARAMS,
                    np.random.default_rng(11))
    assert fast == slow


def test_make_policy_wires_the_dag(fig3_dag):
    policy = make_policy("prio-live", dag=fig3_dag)
    assert isinstance(policy, LivePrioPolicy)
    with pytest.raises(ValueError, match="needs the dag"):
        make_policy("prio-live")


def test_policy_factory_pickles_with_dag(fig3_dag):
    factory = policy_factory("prio-live", dag=fig3_dag)
    clone = pickle.loads(pickle.dumps(factory))
    a = simulate(fig3_dag, factory(np.random.default_rng(0)), PARAMS,
                 np.random.default_rng(3))
    b = simulate(fig3_dag, clone(np.random.default_rng(0)), PARAMS,
                 np.random.default_rng(3))
    assert a == b


def test_live_policy_draws_nothing_from_the_generator(fig3_dag):
    """Common-random-numbers comparability: prio-live consumes the same
    stream positions as any other policy (none)."""
    live = simulate(fig3_dag, LivePrioPolicy(fig3_dag), PARAMS,
                    np.random.default_rng(7))
    again = simulate(fig3_dag, LivePrioPolicy(fig3_dag), PARAMS,
                    np.random.default_rng(7))
    assert live == again
