"""Registry and CLI contract tests for the policy zoo.

The registry is the single source of truth for policy names: the CLI,
the serving tier, and the schedule cache all derive their choices from
it.  These tests pin that contract — registering a policy in
``repro.sim.policies`` is the only step needed to expose it everywhere,
and unknown names fail with a typed error that lists the valid choices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.dag.graph import Dag
from repro.perf.cache import ScheduleCache, schedule_algorithms
from repro.serve.protocol import POLICIES
from repro.sim.compile import CompiledDag
from repro.sim.policies import (
    Policy,
    PolicySpec,
    UnknownPolicyError,
    cli_policy_names,
    make_policy,
    policy_names,
    policy_spec,
    register_policy,
)
from repro.sim.replication import policy_factory

STATIC_KINDS = tuple(k for k in policy_names() if policy_spec(k).static)


@pytest.fixture
def dag() -> Dag:
    return Dag(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])


class TestMakePolicyRoundTrip:
    def test_every_registered_name_builds(self, dag):
        rng = np.random.default_rng(0)
        for kind in policy_names():
            policy = make_policy(
                kind, order=list(range(dag.n)), rng=rng, dag=dag
            )
            assert isinstance(policy, Policy), kind

    def test_static_kinds_build_from_dag_alone(self, dag):
        for kind in STATIC_KINDS:
            factory = policy_factory(kind, dag=dag)
            order = factory.order
            assert sorted(order) == list(range(dag.n)), kind
            # A precomputed order and a dag-derived build serve identically.
            a = make_policy(kind, order=order)
            b = factory(np.random.default_rng(0))
            for job in range(dag.n):
                a.push(job)
                b.push(job)
            assert [a.pop() for _ in range(dag.n)] == [
                b.pop() for _ in range(dag.n)
            ], kind

    def test_unknown_kind_raises_typed_error_listing_choices(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            make_policy("lifo")
        err = excinfo.value
        assert isinstance(err, ValueError)  # the historical contract
        assert err.kind == "lifo"
        assert err.choices == policy_names()
        for name in policy_names():
            assert name in str(err)

    def test_policy_spec_unknown_kind_raises(self):
        with pytest.raises(UnknownPolicyError, match="unknown policy"):
            policy_spec("bogus")

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy(
                PolicySpec(name="fifo", summary="dup", build=lambda **kw: None)
            )

    def test_missing_ingredient_errors(self, dag):
        with pytest.raises(ValueError, match="order"):
            make_policy("oblivious")
        with pytest.raises(ValueError, match="rng"):
            make_policy("random")
        with pytest.raises(ValueError, match="dag"):
            make_policy("upward-rank")
        with pytest.raises(ValueError, match="dag"):
            make_policy("dagps")
        with pytest.raises(ValueError, match="dag"):
            make_policy("prio-live")


class TestRegistryShape:
    def test_cli_names_are_a_subset_in_registration_order(self):
        names = policy_names()
        cli_names = cli_policy_names()
        assert set(cli_names) <= set(names)
        assert list(cli_names) == [n for n in names if n in cli_names]

    def test_oblivious_is_builder_level_only(self):
        assert "oblivious" in policy_names()
        assert "oblivious" not in cli_policy_names()

    def test_new_policies_are_registered(self):
        assert "upward-rank" in cli_policy_names()
        assert "dagps" in cli_policy_names()

    def test_static_kinds_are_cacheable_algorithms(self):
        """Every static-order policy is a schedule-cache algorithm, so
        its identity keys cache entries."""
        assert STATIC_KINDS == ("prio", "upward-rank", "dagps")
        for kind in STATIC_KINDS:
            assert kind in schedule_algorithms(), kind


class TestResolver:
    """``policy_factory`` is the one place a kind plus a dag becomes a
    policy, from either dag form, with or without the schedule cache."""

    @pytest.mark.parametrize("kind", STATIC_KINDS)
    def test_static_order_same_from_either_form_and_cache(self, kind):
        dag = Dag(6, [(0, 2), (0, 1), (1, 3), (2, 3), (3, 5), (2, 4)])
        compiled = CompiledDag.from_dag(dag)
        plain = policy_factory(kind, dag=dag)
        assert plain.batch_kind == "oblivious"
        cache = ScheduleCache()
        for factory in (
            policy_factory(kind, dag=compiled),
            policy_factory(kind, dag=dag, cache=cache),
            # The second resolve, from the other form, is a cache hit.
            policy_factory(kind, dag=compiled, cache=cache),
        ):
            assert factory.order == plain.order, kind
            assert factory.batch_kind == plain.batch_kind
            assert factory.dag is None
        assert (cache.hits, cache.misses) == (1, 1)

    @pytest.mark.parametrize("kind", policy_names())
    def test_factory_holds_a_dag_only_for_consumers(self, kind, dag):
        for form in (dag, CompiledDag.from_dag(dag)):
            factory = policy_factory(kind, dag=form)
            if policy_spec(kind).consumes_dag:
                assert type(factory.dag) is Dag, kind
                assert factory.dag.fingerprint() == dag.fingerprint()
            else:
                assert factory.dag is None, kind
            if kind != "oblivious":  # needs a caller-supplied order
                policy = factory(np.random.default_rng(0))
                assert isinstance(policy, Policy), kind

    def test_unknown_kind_raises_typed_error(self, dag):
        with pytest.raises(UnknownPolicyError):
            policy_factory("lifo", dag=dag)


class TestCliContract:
    def test_simulate_choices_match_registry(self):
        """Regression: ``-a`` choices are derived, not hard-coded."""
        parser = build_parser()
        args = parser.parse_args(["simulate", "airsn-small"])
        action = next(
            a
            for a in parser._subparsers._group_actions[0]
            .choices["simulate"]
            ._actions
            if "-a" in a.option_strings or "--algorithm" in a.option_strings
        )
        assert tuple(action.choices) == cli_policy_names()
        assert args.algorithm == "prio"

    def test_sweep_policy_choices_match_registry(self):
        parser = build_parser()
        action = next(
            a
            for a in parser._subparsers._group_actions[0]
            .choices["sweep"]
            ._actions
            if "--policy" in a.option_strings
        )
        assert tuple(action.choices) == cli_policy_names()

    def test_serve_policies_match_registry(self):
        assert tuple(POLICIES) == cli_policy_names()

    def test_league_rejects_unknown_policy_with_one_line_error(self, capsys):
        code = main(["league", "airsn-small", "--policy", "bogus"])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: unknown policy 'bogus'")
        for name in cli_policy_names():
            assert name in lines[0]

    def test_league_accepts_registry_policies(self, capsys):
        code = main(
            [
                "league",
                "airsn-small",
                "--runs",
                "2",
                "--policy",
                "upward-rank",
                "--policy",
                "fifo",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "upward-rank" in out
        assert "fifo" in out
        # FIFO is the paper's baseline whenever it races, regardless of
        # where the registry roster order puts it (league() itself
        # defaults to the *last* entrant).
        fifo_row = next(
            line for line in out.splitlines() if line.startswith("fifo")
        )
        assert "baseline" in fifo_row
