"""Golden regression tests: exact expected outputs for small cases.

These pin down behaviour that the paper states verbatim (Fig. 3) plus a
few stable small-scale outputs, so refactors cannot silently change the
scheduler's decisions.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.decompose import decompose
from repro.core.prio import prio_schedule
from repro.core.tool import prioritize_dagman
from repro.dagman.parser import parse_dagman_text
from repro.theory.eligibility import eligibility_profile
from repro.dag.transitive import remove_shortcuts
from repro.workloads.airsn import airsn
from repro.workloads.registry import get_workload

FIG3_INPUT = """\
JOB a a.sub
JOB b b.sub
JOB c c.sub
JOB d d.sub
JOB e e.sub
PARENT a CHILD b
PARENT c CHILD d e
"""

FIG3_GOLDEN = """\
JOB a a.sub
JOB b b.sub
JOB c c.sub
JOB d d.sub
JOB e e.sub
PARENT a CHILD b
PARENT c CHILD d e
VARS a jobpriority="4"
VARS b jobpriority="3"
VARS c jobpriority="5"
VARS d jobpriority="2"
VARS e jobpriority="1"
"""


class TestFig3Golden:
    def test_instrumented_file_byte_exact(self):
        dagman = parse_dagman_text(FIG3_INPUT)
        prioritize_dagman(dagman)
        assert dagman.render() == FIG3_GOLDEN


class TestAirsnGolden:
    """AIRSN width 4 — small enough to pin the entire schedule."""

    def test_schedule_labels(self):
        dag = airsn(4)
        result = prio_schedule(dag)
        labels = [dag.label(u) for u in result.schedule]
        # Handle first, then fringes, covers, joins, final sink.
        assert labels[:21] == [f"prep{i:02d}" for i in range(21)]
        assert labels[21:25] == [f"hdr{i:04d}" for i in range(4)]
        assert labels[25:29] == [f"snr{i:04d}" for i in range(4)]
        assert labels[29] == "collect1"
        assert labels[30:34] == [f"smooth{i:04d}" for i in range(4)]
        assert labels[34] == "collect2"

    def test_eligibility_profile_values(self):
        dag = airsn(4)
        result = prio_schedule(dag)
        profile = eligibility_profile(dag, result.schedule)
        # Constant 5 through the handle (4 banked fringes + 1 frontier),
        # then the documented drain pattern.
        assert profile[:21].tolist() == [5] * 21
        assert profile[-1] == 0

    def test_priorities_of_landmarks(self):
        dag = airsn(4)
        result = prio_schedule(dag)
        n = dag.n
        assert result.priorities[dag.id_of("prep00")] == n
        assert result.priorities[dag.id_of("prep20")] == n - 20
        assert result.priorities[dag.id_of("collect2")] == 1


class TestSimulatorGolden:
    """One pinned simulation: exact metric values under a fixed seed."""

    def test_exact_result_fixed_seed(self):
        from repro.sim.engine import SimParams, make_policy, simulate

        dag = airsn(4)
        rng = np.random.default_rng(20060429)
        result = simulate(
            dag, make_policy("fifo"), SimParams(mu_bit=1.0, mu_bs=2.0), rng
        )
        again = simulate(
            dag,
            make_policy("fifo"),
            SimParams(mu_bit=1.0, mu_bs=2.0),
            np.random.default_rng(20060429),
        )
        assert result == again
        assert result.n_jobs == 35
        assert 0 < result.utilization <= 1


def decomposition_digest(dec) -> str:
    payload = {
        "components": [
            [c.index, list(c.nonsinks), list(c.shared_sinks),
             list(c.global_sinks), c.is_bipartite]
            for c in dec.components
        ],
        "comp_of": dec.comp_of,
        "super_children": dec.super_children,
        "super_parents": dec.super_parents,
    }
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestGeneralStepGolden:
    """The registry dags whose decomposition takes the general (non-
    bipartite) step, pinned to the outputs of the per-source closure
    search the SCC pass replaced: (decomposition, priorities) sha256."""

    DIGESTS = {
        "inspiral": (
            "1c4a8cbaca22251e4e05049427e4650fa6a30d9997dbd245f83ca07f23a6b423",
            "8291bdbc0a54764065f5f3688cc6c83317753fdffe847478fc4d022d39b333f7",
        ),
        "inspiral-small": (
            "c34b7d1679b00f9c2b23a813d85123202167a65199fbdc30fdbebc9643a0a9e0",
            "667fb03c9ee2279c4b5e12fab64c666ca0f692886cb4400f634427f960ddf74f",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digests(self, name):
        dag = get_workload(name)
        dec = decompose(remove_shortcuts(dag)[0])
        assert any(not c.is_bipartite for c in dec.components)
        priorities = prio_schedule(dag).priorities
        assert (
            decomposition_digest(dec),
            hashlib.sha256(json.dumps(priorities).encode()).hexdigest(),
        ) == self.DIGESTS[name]
