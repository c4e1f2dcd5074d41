"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FIG3 = """\
JOB a a.sub
JOB b b.sub
JOB c c.sub
JOB d d.sub
JOB e e.sub
PARENT a CHILD b
PARENT c CHILD d e
"""


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "IV.dag"
    path.write_text(FIG3)
    return path


class TestPrioCommand:
    def test_instruments_in_place(self, fig3_file, capsys):
        assert main(["prio", str(fig3_file)]) == 0
        assert 'jobpriority="5"' in fig3_file.read_text()
        out = capsys.readouterr().out
        assert "5 jobs prioritized" in out

    def test_output_flag(self, fig3_file, tmp_path, capsys):
        out_file = tmp_path / "out.dag"
        main(["prio", str(fig3_file), "-o", str(out_file)])
        assert "jobpriority" not in fig3_file.read_text()
        assert "jobpriority" in out_file.read_text()

    def test_verbose_prints_schedule(self, fig3_file, capsys):
        main(["prio", str(fig3_file), "-v"])
        assert "c, a, b, d, e" in capsys.readouterr().out

    def test_splice_tree_output_matches_import(self, tmp_path, capsys):
        (tmp_path / "inner.dag").write_text(
            "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n"
            "RETRY a 2\nSCRIPT PRE b stage.sh $(JOB)\n"
            'VARS b chunk="7"\n'
        )
        top = tmp_path / "top.dag"
        top.write_text(
            "JOB setup setup.sub\nSPLICE block inner.dag DIR blk\n"
            "JOB teardown teardown.sub\n"
            "PARENT setup CHILD block\nPARENT block CHILD teardown\n"
            "RETRY setup 3\nRETRY block 1\nSCRIPT PRE teardown pre.sh\n"
            'VARS setup mode="fast"\nVARS block site="remote"\n'
        )
        prio_out, import_out = tmp_path / "prio.dag", tmp_path / "import.dag"
        assert main(["prio", str(top), "-o", str(prio_out)]) == 0
        assert main([
            "import", str(top), "--no-subdags", "--prioritize",
            "-o", str(import_out),
        ]) == 0
        text = prio_out.read_text()
        assert text == import_out.read_text()
        for line in (
            "RETRY setup 3",
            "RETRY block+a 2",
            "RETRY block+b 1",
            "SCRIPT PRE block+b stage.sh $(JOB)",
            "SCRIPT PRE teardown pre.sh",
            'VARS block+b site="remote"',
            'VARS block+b chunk="7"',
        ):
            assert line in text.splitlines()


# Untrusted input the dagman-facing commands must reject with one line.
BAD_TREES = {
    "parse-error": {"bad.dag": "JOB a\n"},
    "missing-file": {},
    "undeclared-name": {"bad.dag": "JOB a a.sub\nPARENT a CHILD ghost\n"},
    "cycle": {
        "bad.dag": "JOB a a.sub\nJOB b b.sub\n"
        "PARENT a CHILD b\nPARENT b CHILD a\n"
    },
    "missing-include": {"bad.dag": "SPLICE s nowhere.dag\n"},
    "include-cycle": {
        "bad.dag": "SPLICE s other.dag\n",
        "other.dag": "SPLICE t bad.dag\n",
    },
    "splice-in-place": {
        "bad.dag": "SPLICE s inner.dag\n",
        "inner.dag": "JOB a a.sub\n",
    },
    "done-not-closed": {
        "bad.dag": "JOB a a.sub\nJOB b b.sub DONE\nPARENT a CHILD b\n"
    },
}


UNTRUSTED_INPUT_CASES = (
    [(["prio"], case) for case in BAD_TREES if case != "done-not-closed"]
    + [(["prio", "--rescue"], "done-not-closed")]
    + [
        (["run"], case)
        for case in BAD_TREES
        if case not in ("splice-in-place", "done-not-closed")
    ]
    + [(["run", "--prioritize"], "done-not-closed")]
    + [(["lint"], "parse-error"), (["lint"], "missing-file")]
)


@pytest.mark.parametrize(
    "argv, case",
    [
        pytest.param(argv, case, id=f"{' '.join(argv)}:{case}")
        for argv, case in UNTRUSTED_INPUT_CASES
    ],
)
def test_untrusted_input_is_one_error_line(argv, case, tmp_path, capsys):
    for name, text in BAD_TREES[case].items():
        (tmp_path / name).write_text(text)
    assert main([*argv, str(tmp_path / "bad.dag")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, bad_file",
    [
        (["prio"], "bad.dag"),
        (["import"], "bad.dag"),
        (["lint"], "bad.dag"),
        (["lint", "-r"], "bad.dag"),
        (["run"], "bad.dag"),
        (["schedule"], "bad.dag"),
        (["prio", "--jsdfs", "-o", "out.dag"], "a.sub"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_non_utf8_input_is_one_error_line(argv, bad_file, tmp_path, capsys):
    (tmp_path / "bad.dag").write_text("JOB a a.sub\n")
    (tmp_path / "a.sub").write_text("executable = /bin/true\nqueue\n")
    target = tmp_path / bad_file
    target.write_bytes(target.read_bytes() + b"# \xff\n")
    argv = [str(tmp_path / a) if a == "out.dag" else a for a in argv]
    assert main([*argv, str(tmp_path / "bad.dag")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad_file in err


def test_failed_jsdf_run_writes_nothing(tmp_path, capsys):
    (tmp_path / "ok.dag").write_text(
        "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n"
    )
    first = b"executable = /bin/true\nqueue\n"
    (tmp_path / "a.sub").write_bytes(first)
    (tmp_path / "b.sub").write_bytes(
        b"executable = /bin/true\n# \xff\nqueue\n"
    )
    out = tmp_path / "out.dag"
    argv = ["prio", str(tmp_path / "ok.dag"), "--jsdfs", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "b.sub" in err
    assert not out.exists()
    assert (tmp_path / "a.sub").read_bytes() == first


def test_lint_recursive_rejects_check_jsdfs(tmp_path, capsys):
    (tmp_path / "w.dag").write_text("SPLICE s inner.dag\n")
    (tmp_path / "inner.dag").write_text("JOB a a.sub\n")
    assert main(["lint", str(tmp_path / "w.dag"), "-r", "--check-jsdfs"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--check-jsdfs" in captured.err and captured.out == ""


class TestScheduleCommand:
    def test_prio_schedule_of_file(self, fig3_file, capsys):
        main(["schedule", str(fig3_file)])
        assert capsys.readouterr().out.strip() == "c, a, b, d, e"

    def test_fifo_schedule(self, fig3_file, capsys):
        main(["schedule", str(fig3_file), "-a", "fifo"])
        assert capsys.readouterr().out.strip() == "a, c, b, d, e"

    def test_workload_by_name(self, capsys):
        main(["schedule", "airsn-small", "-1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "prep00"
        assert len(lines) == 21 + 3 * 40 + 2


class TestCurvesCommand:
    def test_summary(self, capsys):
        main(["curves", "airsn-small"])
        out = capsys.readouterr().out
        assert "airsn-small" in out and "max(E_PRIO-E_FIFO)" in out

    def test_dump(self, capsys):
        main(["curves", "airsn-small", "--dump"])
        out = capsys.readouterr().out
        assert "# airsn-small: t, E_PRIO, E_FIFO, diff" in out

    def test_telemetry_stage_per_workload_with_or_without_pool(
        self, tmp_path, capsys
    ):
        from repro.obs.events import read_telemetry

        specs = ["airsn-small", "inspiral-small"]
        outputs, stages = [], []
        for jobs in ("1", "2"):
            path = tmp_path / f"curves-{jobs}.jsonl"
            argv = ["curves", *specs, "-j", jobs, "--telemetry", str(path)]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
            records = [r for r in read_telemetry(path) if r["kind"] == "stage"]
            assert all(r.pop("seconds") >= 0.0 for r in records)
            stages.append(records)
        assert outputs[0] == outputs[1]
        assert stages[0] == stages[1]
        assert [r["workload"] for r in stages[0]] == specs


class TestSimulateCommand:
    def test_prints_metrics(self, capsys):
        main(["simulate", "airsn-small", "--mu-bit", "1", "--mu-bs", "8"])
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "stalling probability" in out
        assert "utilization" in out

    @pytest.mark.parametrize("algo", ["fifo", "random"])
    def test_algorithms(self, algo, capsys):
        main(["simulate", "airsn-small", "-a", algo])
        assert f"algorithm           : {algo}" in capsys.readouterr().out


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        main(
            [
                "sweep", "airsn-small",
                "--mu-bit", "1", "--mu-bs", "4", "16",
                "-p", "3", "-q", "1",
            ]
        )
        out = capsys.readouterr().out
        assert "mu_BIT = 1" in out
        assert out.count("|") >= 6

    def test_policy_prio_live_replaces_the_live_flag(self, capsys):
        argv = ["sweep", "airsn-small", "--mu-bit", "1", "--mu-bs", "4",
                "-p", "2", "-q", "1"]
        assert main([*argv, "--policy", "prio-live"]) == 0
        assert capsys.readouterr().out.startswith("PRIO-LIVE/FIFO")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--live"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --live" in capsys.readouterr().err

    def test_stdout_identical_at_one_and_two_jobs(self, capsys):
        argv = ["sweep", "airsn-small", "--mu-bit", "1.0", "--mu-bs", "4.0",
                "16.0", "-p", "4", "-q", "4", "--failure-prob", "0.2"]
        outputs = []
        for jobs in ("1", "2"):
            assert main([*argv, "-j", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestDecomposeCommand:
    def test_lists_blocks_and_families(self, capsys):
        main(["decompose", "airsn-small"])
        out = capsys.readouterr().out
        assert "building blocks" in out
        assert "K(1,40)" in out
        assert "largest" in out

    def test_on_dag_file(self, fig3_file, capsys):
        main(["decompose", str(fig3_file)])
        out = capsys.readouterr().out
        assert "2 building blocks" in out


class TestDotCommand:
    def test_stdout(self, fig3_file, capsys):
        main(["dot", str(fig3_file), "--no-priorities"])
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"c" -> "d";' in out

    def test_with_priorities(self, fig3_file, capsys):
        main(["dot", str(fig3_file)])
        assert 'label="c (5)"' in capsys.readouterr().out

    def test_output_file(self, fig3_file, tmp_path, capsys):
        target = tmp_path / "g.dot"
        main(["dot", str(fig3_file), "-o", str(target)])
        assert target.read_text().startswith("digraph")


class TestRegionsCommand:
    def test_summary(self, capsys):
        main(
            [
                "regions", "airsn-small",
                "--mu-bs", "2", "8",
                "-p", "4", "-q", "1",
            ]
        )
        out = capsys.readouterr().out
        assert "PRIO advantage regions" in out
        assert "peak at mu_BS=" in out


class TestOverheadCommand:
    def test_table(self, capsys):
        main(["overhead", "airsn-small"])
        out = capsys.readouterr().out
        assert "airsn-small" in out and "components" in out


class TestExportCommand:
    def test_export_workload(self, tmp_path, capsys):
        target = tmp_path / "flow"
        main(["export", "airsn-small", str(target)])
        out = capsys.readouterr().out
        assert "143 jobs" in out
        assert (target / "airsn-small.dag").is_file()
        assert (target / "snr.sub").is_file()

    def test_export_and_prioritize(self, tmp_path, capsys):
        target = tmp_path / "flow"
        main(["export", "airsn-small", str(target), "--prioritize"])
        out = capsys.readouterr().out
        assert "jobs prioritized" in out
        assert "jobpriority" in (target / "airsn-small.dag").read_text()


class TestLeagueCommand:
    def test_table(self, capsys):
        main(["league", "airsn-small", "--runs", "6"])
        out = capsys.readouterr().out
        assert "policy league" in out
        assert "prio" in out and "fifo" in out and "baseline" in out


class TestRoundsCommand:
    def test_table(self, capsys):
        main(["rounds", "airsn-small", "--batch-sizes", "1", "8", "64"])
        out = capsys.readouterr().out
        assert "deterministic rounds" in out
        lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(lines) == 3
        # b=1 is fully sequential: both need n rounds, ratio 1.
        first = lines[0].split()
        assert first[1] == first[2] == "143"


class TestRunCommand:
    def _workflow(self, tmp_path, fail_job=False):
        (tmp_path / "touch.sub").write_text(
            "executable = /usr/bin/touch\narguments = $(JOB).out\nqueue\n"
        )
        (tmp_path / "fail.sub").write_text(
            "executable = /bin/false\nqueue\n"
        )
        middle = "fail.sub" if fail_job else "touch.sub"
        dagfile = tmp_path / "flow.dag"
        dagfile.write_text(
            f"JOB one touch.sub\nJOB two {middle}\nJOB three touch.sub\n"
            "PARENT one CHILD two\nPARENT two CHILD three\n"
        )
        return dagfile

    def test_successful_run(self, tmp_path, capsys):
        dagfile = self._workflow(tmp_path)
        assert main(["run", str(dagfile), "--prioritize"]) == 0
        out = capsys.readouterr().out
        assert "completed successfully" in out
        assert (tmp_path / "one.out").is_file()
        assert (tmp_path / "three.out").is_file()

    def test_failed_run_writes_rescue(self, tmp_path, capsys):
        dagfile = self._workflow(tmp_path, fail_job=True)
        assert main(["run", str(dagfile)]) == 1
        out = capsys.readouterr().out
        assert "FAILED two" in out
        rescue = tmp_path / "flow.dag.rescue"
        assert rescue.is_file()
        assert "JOB one touch.sub DONE" in rescue.read_text()


class TestAdvanceCommand:
    """`prio advance`: event files against a checkpointed live session."""

    def _events(self, tmp_path, name, events):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(events))
        return path

    def _oracle(self, fig3_file, executed_labels):
        from repro.core.rescheduling import reprioritize_remnant
        from repro.dagman.parser import parse_dagman_file

        dag = parse_dagman_file(str(fig3_file)).to_dag()
        labels = {dag.label(u): u for u in range(dag.n)}
        executed = {labels[name] for name in executed_labels}
        priorities = reprioritize_remnant(dag, executed).priorities
        return [
            f'VARS {dag.label(u)} jobpriority="{priorities[u]}"'
            for u in sorted(range(dag.n), key=lambda u: -priorities[u])
            if priorities[u] > 0
        ]

    def test_creates_session_and_emits_rescue_vars(
        self, fig3_file, tmp_path, capsys
    ):
        events = self._events(
            tmp_path, "batch1.json", [{"kind": "complete", "label": "c"}]
        )
        code = main([
            "advance", str(events),
            "--session-dir", str(tmp_path / "sessions"),
            "--dag", str(fig3_file), "--name", "run1",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "created session" in captured.err
        assert "1 events applied" in captured.err
        assert captured.out.splitlines() == self._oracle(fig3_file, {"c"})

    def test_session_persists_across_invocations(
        self, fig3_file, tmp_path, capsys
    ):
        sessions = str(tmp_path / "sessions")
        batch1 = self._events(
            tmp_path, "batch1.json", [{"kind": "complete", "label": "c"}]
        )
        batch2 = self._events(
            tmp_path, "batch2.json",
            [{"kind": "fail", "label": "a"},
             {"kind": "complete", "label": "a"}],
        )
        args = ["--session-dir", sessions, "--dag", str(fig3_file)]
        assert main(["advance", str(batch1)] + args) == 0
        capsys.readouterr()
        # Second invocation is a fresh process in spirit: the session is
        # recovered from the checkpoint, seq defaults to the next batch.
        assert main(["advance", str(batch2)] + args) == 0
        captured = capsys.readouterr()
        assert "created session" not in captured.err
        assert "seq 2" in captured.err
        assert captured.out.splitlines() == self._oracle(
            fig3_file, {"c", "a"}
        )

    def test_needs_session_or_dag(self, tmp_path, capsys):
        events = self._events(tmp_path, "batch.json", [])
        code = main([
            "advance", str(events), "--session-dir", str(tmp_path / "s"),
        ])
        assert code == 2
        assert "need --session or --dag" in capsys.readouterr().err

    def test_illegal_event_exits_2(self, fig3_file, tmp_path, capsys):
        events = self._events(
            tmp_path, "bad.json", [{"kind": "complete", "label": "b"}]
        )
        code = main([
            "advance", str(events),
            "--session-dir", str(tmp_path / "sessions"),
            "--dag", str(fig3_file),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: job b cannot complete before its parent a" in err


class TestProfileCommand:
    def test_prints_stage_breakdown(self, capsys):
        assert main(["profile", "--workload", "airsn-small", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        for stage in (
            "load", "transitive_reduction", "decompose", "recurse",
            "combine", "compile", "simulate", "total",
        ):
            assert stage in out
        assert "engine counters" in out

    def test_telemetry_written(self, tmp_path, capsys):
        from repro.obs.events import read_telemetry

        path = tmp_path / "profile.jsonl"
        main([
            "profile", "-w", "airsn-small", "--runs", "3",
            "--telemetry", str(path),
        ])
        records = read_telemetry(path)
        assert records[0]["kind"] == "run"
        assert records[0]["command"] == "profile"
        reps = [r for r in records if r["kind"] == "replication"]
        assert len(reps) == 3
        assert "wrote" in capsys.readouterr().err


class TestSweepTelemetry:
    def test_one_record_per_replication_and_unchanged_output(
        self, tmp_path, capsys
    ):
        from repro.obs.events import read_telemetry

        args = [
            "sweep", "airsn-small", "--mu-bit", "1.0", "--mu-bs", "8.0",
            "-p", "3", "-q", "2", "--seed", "5",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "sweep.jsonl"
        assert main(args + ["--telemetry", str(path)]) == 0
        logged = capsys.readouterr().out
        assert logged == plain  # telemetry never changes the results
        records = read_telemetry(path)
        reps = [r for r in records if r["kind"] == "replication"]
        # one cell x two sides (prio, fifo) x p*q replications
        assert len(reps) == 2 * 3 * 2
        assert {r["policy"] for r in reps} == {"prio", "fifo"}
        cells = [r for r in records if r["kind"] == "cell"]
        assert len(cells) == 1
        assert cells[0]["mu_bs"] == 8.0


class TestImportCommand:
    @pytest.fixture
    def cax_root(self, tmp_path):
        from repro.workloads.corpus import cax_tree, write_tree

        return write_tree(cax_tree(runs=2, chunks=2), tmp_path)

    def test_summary(self, cax_root, capsys):
        assert main(["import", str(cax_root)]) == 0
        out = capsys.readouterr().out
        assert "jobs                : 12" in out
        assert "fingerprint" in out
        assert "max nesting depth   : 1" in out

    def test_flat_output_reimports_identically(
        self, cax_root, tmp_path, capsys
    ):
        flat = tmp_path / "flat.dag"
        assert main(["import", str(cax_root), "-o", str(flat)]) == 0
        first = capsys.readouterr().out
        assert main(["import", str(flat)]) == 0
        second = capsys.readouterr().out
        fp = [l for l in first.splitlines() if "fingerprint" in l]
        assert fp == [l for l in second.splitlines() if "fingerprint" in l]

    def test_prioritize_writes_jobpriority(self, cax_root, tmp_path, capsys):
        flat = tmp_path / "flat.dag"
        assert (
            main(["import", str(cax_root), "--prioritize", "-o", str(flat)])
            == 0
        )
        assert "jobpriority" in flat.read_text()

    def test_json_artifact(self, cax_root, tmp_path, capsys):
        import json

        out = tmp_path / "flat.json"
        assert main(["import", str(cax_root), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-import-v1"
        assert len(payload["jobs"]) == 12
        assert payload["dag"]["n"] == 12

    def test_simulate(self, cax_root, capsys):
        assert main(["import", str(cax_root), "--simulate"]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "utilization" in out

    def test_no_subdags(self, cax_root, capsys):
        assert main(["import", str(cax_root), "--no-subdags"]) == 0
        assert "jobs                : 4" in capsys.readouterr().out

    def test_rescue_flag(self, cax_root, capsys):
        cax_root.with_name("production.dag.rescue001").write_text(
            "DONE stage_runlist\n"
        )
        assert main(["import", str(cax_root), "--rescue"]) == 0
        assert "(1 done)" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["import", str(tmp_path / "absent.dag")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_include_cycle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "loop.dag"
        path.write_text("SPLICE s loop.dag\n")
        assert main(["import", str(path)]) == 2
        assert "recursive include" in capsys.readouterr().err

    def test_nested_tree_works_everywhere(self, cax_root, capsys):
        # _load_dag goes through the importer: nested trees are accepted
        # by any dag-taking subcommand.
        assert main(["schedule", str(cax_root)]) == 0
        assert "stage_runlist" in capsys.readouterr().out


class TestHelpSurface:
    @pytest.mark.parametrize(
        "command",
        [
            "prio", "schedule", "decompose", "dot", "curves", "simulate",
            "sweep", "regions", "overhead", "rounds", "league", "lint",
            "export", "run", "report", "profile", "calibrate", "import",
        ],
    )
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["schedule", "not-a-workload"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not-a-workload" in err


SWEEP_ARGS = [
    "sweep", "airsn-small", "--mu-bit", "1.0", "--mu-bs", "1.0", "4.0",
    "-p", "4", "-q", "2",
]


class TestRobustCli:
    """Checkpoint/resume flags and the CLI's error/exit-code hygiene."""

    def test_missing_resume_file_exits_2(self, tmp_path, capsys):
        code = main(SWEEP_ARGS + ["--resume", str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not found" in err

    def test_fingerprint_mismatch_exits_2(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert main(SWEEP_ARGS + ["--checkpoint", ck]) == 0
        capsys.readouterr()
        # Different grid -> different fingerprint -> refuse to resume.
        code = main(
            ["sweep", "airsn-small", "--mu-bit", "1.0", "--mu-bs", "1.0",
             "-p", "4", "-q", "2", "--resume", ck]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "different experiment configuration" in err

    def test_unreadable_checkpoint_exits_2(self, tmp_path, capsys):
        from repro.robust import corrupt_checkpoint

        ck = str(tmp_path / "ck.jsonl")
        assert main(SWEEP_ARGS + ["--checkpoint", ck]) == 0
        capsys.readouterr()
        corrupt_checkpoint(ck, line=0, how="garbage")
        code = main(SWEEP_ARGS + ["--resume", ck])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130_with_resume_hint(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli as cli_module

        def interrupted_sweep(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "ratio_sweep", interrupted_sweep)
        ck = str(tmp_path / "ck.jsonl")
        code = main(SWEEP_ARGS + ["--checkpoint", ck])
        assert code == 130
        err = capsys.readouterr().err
        assert "--resume" in err and ck in err
        assert "interrupted" in err

    def test_checkpoint_then_resume_stdout_identical(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert main(SWEEP_ARGS + ["--checkpoint", ck]) == 0
        first = capsys.readouterr().out
        assert main(SWEEP_ARGS + ["--resume", ck]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_retry_flags_accepted(self, capsys):
        code = main(
            SWEEP_ARGS
            + ["-j", "2", "--max-attempts", "2", "--chunk-timeout", "30"]
        )
        assert code == 0
        assert "PRIO/FIFO" in capsys.readouterr().out or True

    def test_calibrate_resume_roundtrip(self, tmp_path, capsys):
        args = [
            "calibrate", "airsn-small", "--mu-bit", "1.0", "--mu-bs", "4.0",
            "-p", "4", "--start-q", "1", "--max-q", "2",
            "--target-width", "0.000001", "--seed", "5",
        ]
        ck = str(tmp_path / "cal.jsonl")
        assert main(args + ["--checkpoint", ck]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume", ck]) == 0
        assert capsys.readouterr().out == first

    def test_league_resume_roundtrip(self, tmp_path, capsys):
        args = [
            "league", "airsn-small", "--runs", "6", "--seed", "3",
        ]
        ck = str(tmp_path / "lg.jsonl")
        assert main(args + ["--checkpoint", ck]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume", ck]) == 0
        assert capsys.readouterr().out == first
