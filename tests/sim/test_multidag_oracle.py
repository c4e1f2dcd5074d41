"""``simulate_shared`` against the shared-pool loop it replaced.

The wrapper runs the multi-user model on the reference engine; the old
loop lives on in :mod:`tests.sim.multidag_reference`.  Results and the
generator's end state are asserted bit-identical, not close:

* mixes under 4,096 jobs against the old loop verbatim (one runtime
  sample per assignment);
* mixes over 4,096 jobs, and random policies that draw from the
  simulation's own generator, against the old loop with per-batch
  runtime draws — the engine's stream rule, which differs from the old
  loop's exactly there.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.prio import prio_schedule
from repro.dag.builders import chain, fork_join
from repro.dag.graph import Dag
from repro.sim.engine import SimParams, make_policy
from repro.sim.multidag import simulate_shared
from repro.sim.policies import Policy
from repro.workloads.airsn import airsn

from ..perf.strategies import dags
from .multidag_reference import simulate_shared_reference

KINDS = ("fifo", "oblivious", "random")


@st.composite
def user_dags(draw):
    """One user's dag: an arbitrary small dag or a workload-shaped one."""
    family = draw(st.sampled_from(["random", "fork-join", "chain", "airsn"]))
    if family == "random":
        return draw(dags(max_n=12))
    if family == "fork-join":
        return fork_join(draw(st.integers(1, 300)))
    if family == "chain":
        return chain(draw(st.integers(1, 40)))
    return airsn(draw(st.integers(1, 30)))


@st.composite
def mixes(draw):
    """1-4 users, each with a kind and, for oblivious, a job order."""
    users = []
    for _ in range(draw(st.integers(1, 4))):
        dag = draw(user_dags())
        kind = draw(st.sampled_from(KINDS))
        order = (
            draw(st.permutations(range(dag.n))) if kind == "oblivious" else None
        )
        users.append((dag, kind, order))
    return users


shared_params = st.builds(
    SimParams,
    mu_bit=st.sampled_from([0.01, 0.5, 1.0, 10.0]),
    mu_bs=st.sampled_from([1.0, 2.0, 16.0, 128.0]),
    runtime_std=st.sampled_from([0.1, 0.0]),  # 0.0: exact finish ties
    batch_size_dist=st.sampled_from(["geometric", "ceil-exponential"]),
)


def both(users, params, seed, *, shared_rng=False, per_batch_draws=False):
    """Run the wrapper and the oracle on identical fresh inputs.

    Random policies draw from the simulation's generator when
    *shared_rng*, else from a generator of their own.  Returns the two
    results and the end states of every generator involved.
    """
    runs = []
    oracle = {"per_batch_draws": per_batch_draws}
    for simulate, kw in ((simulate_shared, {}),
                         (simulate_shared_reference, oracle)):
        rng = np.random.default_rng(seed)
        policy_rngs = []
        policies = []
        for user, (_, kind, order) in enumerate(users):
            policy_rng = rng
            if not shared_rng:
                policy_rng = np.random.default_rng([seed, user])
                policy_rngs.append(policy_rng)
            policies.append(make_policy(kind, order=order, rng=policy_rng))
        result = simulate([d for d, _, _ in users], policies, params, rng, **kw)
        states = [g.bit_generator.state for g in [rng, *policy_rngs]]
        runs.append((result, states))
    return runs


@given(mixes(), shared_params, st.integers(0, 2**32 - 1))
def test_wrapper_matches_old_loop(users, params, seed):
    assert sum(d.n for d, _, _ in users) < 4096
    (got, got_states), (want, want_states) = both(users, params, seed)
    assert got == want
    assert got_states == want_states


@given(mixes(), shared_params, st.integers(0, 2**32 - 1))
def test_random_policy_on_the_simulation_generator(users, params, seed):
    (got, got_states), (want, want_states) = both(
        users, params, seed, shared_rng=True, per_batch_draws=True
    )
    assert got == want
    assert got_states == want_states


LARGE_MIXES = {
    "fork-join-5000": [(fork_join(3000), "fifo"), (fork_join(2000), "fifo")],
    "airsn-vs-bag": [(airsn(600), "oblivious"), (fork_join(2500), "fifo"),
                     (chain(50), "random")],
}


def _large(name):
    return [
        (d, kind, prio_schedule(d).schedule if kind == "oblivious" else None)
        for d, kind in LARGE_MIXES[name]
    ]


@pytest.mark.parametrize("name", sorted(LARGE_MIXES))
@pytest.mark.parametrize(
    "mu_bit,mu_bs", [(1.0, 16.0), (0.5, 128.0), (1.0, 1.0)]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_large_mix_uses_per_batch_draws(name, mu_bit, mu_bs, seed):
    users = _large(name)
    assert sum(d.n for d, _, _ in users) > 4096
    params = SimParams(mu_bit=mu_bit, mu_bs=mu_bs)
    (got, got_states), (want, want_states) = both(
        users, params, seed, per_batch_draws=True
    )
    assert got == want
    assert got_states == want_states


@pytest.mark.parametrize(
    "users,shared_rng",
    [
        (_large("fork-join-5000"), False),
        ([(Dag(30, []), "random", None), (chain(10), "fifo", None)], True),
    ],
    ids=["over-4096-jobs", "random-on-simulation-generator"],
)
def test_the_two_stream_changes_are_real(users, shared_rng):
    """Both cases the per-batch oracle covers do leave the old loop's
    stream: a block crosses a runtime chunk, or a random policy draws
    before the first runtime block instead of after it."""
    (got, _), (old, _) = both(
        users, SimParams(mu_bit=1.0, mu_bs=16.0), 0, shared_rng=shared_rng
    )
    assert got != old


def test_user_policies_see_their_completions():
    """The pool passes ``on_complete`` on in the user's own job ids."""

    class Recording(Policy):
        def __init__(self):
            self.inner = make_policy("fifo")
            self.seen = []

        def push(self, job):
            self.inner.push(job)

        def pop(self):
            return self.inner.pop()

        def on_complete(self, job, t):
            self.seen.append((job, t))

        def __len__(self):
            return len(self.inner)

    policies = [Recording(), Recording()]
    result = simulate_shared(
        [chain(3), fork_join(2)], policies, SimParams(mu_bit=1.0, mu_bs=2.0),
        np.random.default_rng(0),
    )
    assert [job for job, _ in policies[0].seen] == [0, 1, 2]
    assert sorted(job for job, _ in policies[1].seen) == [0, 1, 2, 3]
    for user, policy in enumerate(policies):
        completion = result.users[user].completion_time
        assert max(t for _, t in policy.seen) == completion
