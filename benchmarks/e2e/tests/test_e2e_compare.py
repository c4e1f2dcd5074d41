"""Verdicts of compare.py on synthetic result sets."""

import io

import pytest

from compare import compare, verdict

SEEDS = range(1, 11)


def steady(center, jitter=0.01):
    """Ten seeds' values within +-jitter of *center*."""
    return {s: center * (1 + jitter * ((s % 5) - 2) / 2) for s in SEEDS}


@pytest.mark.parametrize(
    "change, better, expected",
    [
        (steady(100.0), "lower", "ok"),
        (steady(104.0), "lower", "ok"),  # worse, but within the 10% bound
        (steady(120.0), "lower", "regressed"),
        (steady(80.0), "lower", "improved"),
        (steady(80.0), "higher", "regressed"),
        (steady(120.0), "higher", "improved"),
    ],
)
def test_verdicts_on_steady_runs(change, better, expected):
    assert verdict(steady(100.0), change, better, 0.10) == expected


def test_wide_parent_spread_is_unresolved():
    noisy = {s: 100.0 * (0.6 + 0.08 * s) for s in SEEDS}  # +-30% spread
    assert verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    assert verdict(noisy, steady(130.0), "lower", 0.10) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(noisy, steady(40.0), "lower", 0.10) == "improved"


def test_improvement_needs_nine_of_ten_pair_wins():
    parent = steady(100.0, jitter=0.04)
    change = {s: v * 0.9 for s, v in parent.items()}
    assert verdict(parent, change, "lower", 0.10) == "improved"
    change[1] = change[2] = parent[1] * 1.5  # two losing pairs
    assert verdict(parent, change, "lower", 0.10) == "ok"


def test_missing_side():
    assert verdict({}, steady(1.0), "lower", 0.1) == "missing"


def _result(workload, seed, value, digest="d"):
    return {
        "benchmark": "e2e", "workload": workload, "seed": seed, "mode": "untraced",
        "quick": False, "work": {"passes": 1}, "digest": digest,
        "metrics": {"latency_ms": {"value": value, "unit": "ms"}},
    }


SPEC = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


def test_compare_exit_status():
    parent = [_result("w", s, v) for s, v in steady(10.0).items()]
    same = [_result("w", s, v) for s, v in steady(10.0).items()]
    slower = [_result("w", s, v) for s, v in steady(13.0).items()]
    out = io.StringIO()
    assert compare(parent, same, SPEC, out) == 0
    assert "ok" in out.getvalue()
    assert compare(parent, slower, SPEC, io.StringIO()) == 1
    changed = [_result("w", s, v, digest="other" if s == 3 else "d")
               for s, v in steady(10.0).items()]
    out = io.StringIO()
    assert compare(parent, changed, SPEC, out) == 1
    assert "digest mismatch: w seed 3" in out.getvalue()
