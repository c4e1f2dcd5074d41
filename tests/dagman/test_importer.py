"""Unit tests for the workflow-tree importer (repro.dagman.importer)."""

from __future__ import annotations

import pytest

from repro.dagman.importer import (
    DagmanImportError,
    import_dagman_file,
    import_dagman_tree,
)
from repro.dagman.parser import parse_dagman_text


def _cax_like() -> dict[str, str]:
    return {
        "outer.dag": (
            "JOB prep prep.sub\n"
            "SUBDAG EXTERNAL run_a run_a/inner.dag DIR run_a\n"
            "SUBDAG EXTERNAL run_b run_b/inner.dag DIR run_b\n"
            'VARS run_a run="a"\n'
            'VARS run_b run="b"\n'
            "RETRY run_a 2\n"
            "JOB merge merge.sub\n"
            "PARENT prep CHILD run_a run_b\n"
            "PARENT run_a run_b CHILD merge\n"
        ),
        "run_a/inner.dag": (
            "JOB process process_$(run).sub\n"
            "JOB upload upload.sub\n"
            'VARS process chunk="7"\n'
            "PARENT process CHILD upload\n"
        ),
        "run_b/inner.dag": (
            "JOB process process_$(run).sub\n"
            "JOB upload upload.sub\n"
            "PARENT process CHILD upload\n"
        ),
    }


class TestFlattening:
    def test_namespaced_ids_in_declaration_order(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        assert list(w.flat.jobs) == [
            "prep",
            "run_a+process",
            "run_a+upload",
            "run_b+process",
            "run_b+upload",
            "merge",
        ]

    def test_arcs_attach_to_inner_sources_and_sinks(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        assert ("prep", "run_a+process") in w.flat.arcs
        assert ("run_a+upload", "merge") in w.flat.arcs
        # No arc touches the include node's own name.
        assert all("run_a" != p and "run_a" != c for p, c in w.flat.arcs)

    def test_vars_inherited_inner_wins(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        assert w.meta["run_a+process"].vars == {"run": "a", "chunk": "7"}
        assert w.meta["run_b+upload"].vars == {"run": "b"}
        # Jobs outside any include inherit nothing.
        assert w.meta["prep"].vars == {}

    def test_macro_expansion_in_submit_files(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        assert w.meta["run_a+process"].submit_file == "process_a.sub"
        assert w.meta["run_b+process"].submit_file == "process_b.sub"

    def test_undefined_macro_stays_verbatim_in_submit_file(self):
        tree = {"root.dag": "JOB a run_$(undef).sub\n"}
        w = import_dagman_tree(tree, "root.dag")
        assert w.meta["a"].submit_file == "run_$(undef).sub"

    def test_dir_scoping_composes(self):
        tree = {
            "root.dag": "SPLICE outer sub/mid.dag DIR sub\n",
            "sub/mid.dag": "SPLICE inner deep.dag DIR deeper\n",
            "sub/deep.dag": "JOB leaf leaf.sub DIR leafdir\n",
        }
        w = import_dagman_tree(tree, "root.dag")
        meta = w.meta["outer+inner+leaf"]
        assert meta.directory == "sub/deeper/leafdir"

    def test_retry_on_include_applies_to_inner_jobs(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        assert w.flat.retries["run_a+process"] == 2
        assert w.flat.retries["run_a+upload"] == 2
        assert "run_b+process" not in w.flat.retries

    def test_scripts_carried_with_flat_names(self):
        tree = {
            "root.dag": "SPLICE s inner.dag\n",
            "inner.dag": (
                "JOB a a.sub\nSCRIPT POST a check.sh $(JOB)\n"
            ),
        }
        w = import_dagman_tree(tree, "root.dag")
        assert w.flat.scripts[("s+a", "post")] == "check.sh $(JOB)"

    def test_meta_source_and_depth(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        assert w.meta["prep"].source == "outer.dag"
        assert w.meta["prep"].depth == 0
        assert w.meta["run_a+process"].source == "run_a/inner.dag"
        assert w.meta["run_a+process"].depth == 1

    def test_splice_and_subdag_flatten_identically(self):
        def shape(keyword: str) -> str:
            tree = {
                "root.dag": f"{keyword} s inner.dag\nJOB z z.sub\n"
                "PARENT s CHILD z\n",
                "inner.dag": "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n",
            }
            return import_dagman_tree(tree, "root.dag").fingerprint()

        assert shape("SPLICE") == shape("SUBDAG EXTERNAL")

    def test_empty_include_drops_out(self):
        tree = {
            "root.dag": (
                "JOB a a.sub\nSPLICE s empty.dag\nJOB b b.sub\n"
                "PARENT a CHILD s\nPARENT s CHILD b\n"
            ),
            "empty.dag": "# nothing here\n",
        }
        w = import_dagman_tree(tree, "root.dag")
        assert list(w.flat.jobs) == ["a", "b"]
        # The connection *through* the empty splice vanishes with it.
        assert w.flat.arcs == []


class TestRoundTripRender:
    def test_render_reparses_to_same_structure(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        again = parse_dagman_text(w.render())
        assert list(again.jobs) == list(w.flat.jobs)
        assert again.arcs == w.flat.arcs
        assert again.vars_ == w.flat.vars_
        assert again.retries == w.flat.retries
        assert again.scripts == w.flat.scripts
        assert again.to_dag().fingerprint() == w.fingerprint()

    def test_set_priority_after_import_replaces_in_place(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        w.flat.set_priority("prep", 5)
        w.flat.set_priority("prep", 9)
        text = w.render()
        assert text.count("jobpriority") == 1
        assert 'VARS prep jobpriority="9"' in text

    def test_vars_quotes_escaped_in_render(self):
        tree = {"root.dag": 'JOB a a.sub\nVARS a note="say \\"hi\\""\n'}
        w = import_dagman_tree(tree, "root.dag")
        again = parse_dagman_text(w.render())
        assert again.vars_["a"]["note"] == 'say "hi"'


class TestSubdagModes:
    def test_opaque_mode_keeps_subdag_nodes(self):
        w = import_dagman_tree(
            _cax_like(), "outer.dag", expand_subdags=False
        )
        assert list(w.flat.jobs) == ["prep", "run_a", "run_b", "merge"]
        assert w.meta["run_a"].is_subdag
        assert w.meta["run_a"].retries == 2
        # Only the root file is read.
        assert w.sources == ("outer.dag",)

    def test_opaque_render_reparses(self):
        w = import_dagman_tree(
            _cax_like(), "outer.dag", expand_subdags=False
        )
        again = parse_dagman_text(w.render())
        assert again.jobs["run_a"].is_subdag
        assert again.to_dag().fingerprint() == w.fingerprint()


class TestScripts:
    def test_thousands_of_scripted_jobs_keep_their_hooks(self):
        # A chain with a POST script per job (and a PRE on every third):
        # scripts are grouped once per file, each job gets exactly its own.
        n = 3000
        lines = [f"JOB j{i} j.sub" for i in range(n)]
        lines += [f"PARENT j{i} CHILD j{i + 1}" for i in range(n - 1)]
        lines += [f"SCRIPT POST j{i} post.sh {i}" for i in range(n)]
        lines += [f"SCRIPT PRE j{i} pre.sh {i}" for i in range(0, n, 3)]
        tree = {
            "root.dag": "SPLICE s inner.dag\nJOB last last.sub\n"
                        "PARENT s CHILD last\n",
            "inner.dag": "\n".join(lines) + "\n",
        }
        w = import_dagman_tree(tree, "root.dag")
        assert w.n_jobs == n + 1
        expected = {}
        for i in range(n):
            expected[(f"s+j{i}", "post")] = f"post.sh {i}"
            if i % 3 == 0:
                expected[(f"s+j{i}", "pre")] = f"pre.sh {i}"
        assert w.flat.scripts == expected
        # Flat order: job by job, each job's hooks in statement order.
        assert list(w.flat.scripts)[:3] == [
            ("s+j0", "post"), ("s+j0", "pre"), ("s+j1", "post")
        ]
        again = parse_dagman_text(w.render())
        assert again.scripts == w.flat.scripts


class TestErrors:
    def test_missing_root(self):
        with pytest.raises(DagmanImportError, match="not in tree"):
            import_dagman_tree({}, "root.dag")

    def test_missing_include_names_includer(self):
        tree = {"root.dag": "SPLICE s gone.dag\n"}
        with pytest.raises(DagmanImportError, match="gone.dag"):
            import_dagman_tree(tree, "root.dag")

    def test_self_inclusion(self):
        tree = {"root.dag": "SPLICE s root.dag\n"}
        with pytest.raises(DagmanImportError, match="recursive include"):
            import_dagman_tree(tree, "root.dag")

    def test_mutual_inclusion_reports_chain(self):
        tree = {
            "a.dag": "SUBDAG EXTERNAL x b.dag\n",
            "b.dag": "SPLICE y a.dag\n",
        }
        with pytest.raises(
            DagmanImportError, match=r"a.dag -> b.dag -> a.dag"
        ):
            import_dagman_tree(tree, "a.dag")

    def test_undefined_macro_in_include_ref(self):
        tree = {"root.dag": "SUBDAG EXTERNAL s run_$(run)/inner.dag\n"}
        with pytest.raises(DagmanImportError, match="undefined macro"):
            import_dagman_tree(tree, "root.dag")

    def test_undeclared_arc_endpoint(self):
        tree = {"root.dag": "JOB a a.sub\nPARENT a CHILD ghost\n"}
        with pytest.raises(DagmanImportError, match="ghost"):
            import_dagman_tree(tree, "root.dag")

    def test_parse_error_names_file(self):
        tree = {
            "root.dag": "SPLICE s inner.dag\n",
            "inner.dag": "FROBNICATE x\n",
        }
        with pytest.raises(DagmanImportError, match="inner.dag"):
            import_dagman_tree(tree, "root.dag")

    def test_name_clash_after_namespacing(self):
        tree = {
            "root.dag": "JOB s+a other.sub\nSPLICE s inner.dag\n",
            "inner.dag": "JOB a a.sub\n",
        }
        with pytest.raises(DagmanImportError, match="clash"):
            import_dagman_tree(tree, "root.dag")

    def test_depth_limit(self):
        tree = {"d0.dag": "JOB leaf leaf.sub\n"}
        for i in range(1, 6):
            tree[f"d{i}.dag"] = f"SPLICE s d{i - 1}.dag\n"
        with pytest.raises(DagmanImportError, match="nesting deeper"):
            import_dagman_tree(tree, "d5.dag", max_depth=3)
        # A generous limit imports fine.
        assert import_dagman_tree(tree, "d5.dag").n_jobs == 1


class TestRescue:
    def test_partial_done_format(self, tmp_path):
        (tmp_path / "flow.dag").write_text(
            "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n"
        )
        (tmp_path / "flow.dag.rescue001").write_text("DONE a\n")
        w = import_dagman_file(tmp_path / "flow.dag", rescue=True)
        assert w.meta["a"].done and not w.meta["b"].done

    def test_highest_numbered_rescue_wins(self, tmp_path):
        (tmp_path / "flow.dag").write_text(
            "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n"
        )
        (tmp_path / "flow.dag.rescue001").write_text("DONE a\n")
        (tmp_path / "flow.dag.rescue002").write_text("DONE a\nDONE b\n")
        w = import_dagman_file(tmp_path / "flow.dag", rescue=True)
        assert w.meta["a"].done and w.meta["b"].done

    def test_full_file_rescue_format(self, tmp_path):
        # The runner rewrites the whole dag with DONE flags appended.
        (tmp_path / "flow.dag").write_text(
            "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n"
        )
        (tmp_path / "flow.dag.rescue").write_text(
            "JOB a a.sub DONE\nJOB b b.sub\nPARENT a CHILD b\n"
        )
        w = import_dagman_file(tmp_path / "flow.dag", rescue=True)
        assert w.meta["a"].done and not w.meta["b"].done

    def test_done_include_marks_whole_subtree(self, tmp_path):
        (tmp_path / "outer.dag").write_text(
            "SUBDAG EXTERNAL s inner.dag\nJOB z z.sub\nPARENT s CHILD z\n"
        )
        (tmp_path / "inner.dag").write_text(
            "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n"
        )
        (tmp_path / "outer.dag.rescue001").write_text("DONE s\n")
        w = import_dagman_file(tmp_path / "outer.dag", rescue=True)
        assert w.meta["s+a"].done and w.meta["s+b"].done
        assert not w.meta["z"].done

    def test_inner_rescue_applies_to_inner_file(self, tmp_path):
        (tmp_path / "outer.dag").write_text(
            "SUBDAG EXTERNAL s inner.dag\n"
        )
        (tmp_path / "inner.dag").write_text(
            "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n"
        )
        (tmp_path / "inner.dag.rescue001").write_text("DONE a\n")
        w = import_dagman_file(tmp_path / "outer.dag", rescue=True)
        assert w.meta["s+a"].done and not w.meta["s+b"].done

    def test_rescue_ignored_by_default(self, tmp_path):
        (tmp_path / "flow.dag").write_text("JOB a a.sub\n")
        (tmp_path / "flow.dag.rescue001").write_text("DONE a\n")
        w = import_dagman_file(tmp_path / "flow.dag")
        assert not w.meta["a"].done

    def test_explicit_rescue_file_override(self, tmp_path):
        (tmp_path / "flow.dag").write_text("JOB a a.sub\nJOB b b.sub\n")
        (tmp_path / "flow.dag.rescue001").write_text("DONE a\n")
        (tmp_path / "other.rescue").write_text("DONE b\n")
        w = import_dagman_file(
            tmp_path / "flow.dag", rescue_file=tmp_path / "other.rescue"
        )
        assert not w.meta["a"].done and w.meta["b"].done

    def test_in_memory_tree_rescue(self):
        tree = {
            "flow.dag": "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n",
            "flow.dag.rescue001": "DONE a\n",
        }
        w = import_dagman_tree(tree, "flow.dag", rescue=True)
        assert w.meta["a"].done and not w.meta["b"].done


class TestDiskFrontend:
    def test_disk_and_memory_agree(self, tmp_path):
        tree = _cax_like()
        for rel, text in tree.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        on_disk = import_dagman_file(tmp_path / "outer.dag")
        in_memory = import_dagman_tree(tree, "outer.dag")
        assert on_disk.fingerprint() == in_memory.fingerprint()
        assert on_disk.render() == in_memory.render()
        assert list(on_disk.sources) == list(in_memory.sources)

    def test_missing_file_is_import_error(self, tmp_path):
        with pytest.raises(DagmanImportError, match="cannot read"):
            import_dagman_file(tmp_path / "absent.dag")

    def test_to_json_payload(self):
        w = import_dagman_tree(_cax_like(), "outer.dag")
        payload = w.to_json()
        assert payload["format"] == "repro-import-v1"
        assert payload["fingerprint"] == w.fingerprint()
        assert payload["jobs"]["run_a+process"]["vars"] == {
            "run": "a",
            "chunk": "7",
        }
        assert payload["dag"]["n"] == w.n_jobs
