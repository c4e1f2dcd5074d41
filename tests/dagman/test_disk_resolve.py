"""Include paths on disk: ``_DiskTree.resolve`` against ``os.path.realpath``.

The resolver walks only the include's own components (its base is a
resolved key already) and hands any include that meets a symlink to
``os.path.realpath``.  Either way the key must be what ``realpath`` of
the joined path gives.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dagman.importer import (
    DagmanImportError,
    _DiskTree,
    import_dagman_file,
)


def realpath_of(base: str, ref: str) -> str:
    return os.path.realpath(os.path.join(os.path.dirname(base), ref))


class TestResolve:
    def test_symlinked_subdirectory_then_parent(self, tmp_path):
        """``..`` after a symlinked directory leaves the link's target, as
        ``realpath`` does, not the directory holding the link."""
        (tmp_path / "real" / "deep").mkdir(parents=True)
        (tmp_path / "top").mkdir()
        (tmp_path / "top" / "link").symlink_to(tmp_path / "real" / "deep")
        (tmp_path / "real" / "inner.dag").write_text("JOB x x.sub\n")
        (tmp_path / "top" / "outer.dag").write_text(
            "JOB a a.sub\nSPLICE s link/../inner.dag\nPARENT a CHILD s\n"
        )
        root = os.path.realpath(tmp_path / "top" / "outer.dag")
        tree = _DiskTree(root)
        key = tree.resolve(root, "link/../inner.dag")
        assert key == os.path.realpath(tmp_path / "real" / "inner.dag")
        assert key == realpath_of(root, "link/../inner.dag")
        flat = import_dagman_file(tmp_path / "top" / "outer.dag").flat
        assert ("a", "s+x") in flat.arcs

    def test_plain_components(self, tmp_path):
        (tmp_path / "a" / "b").mkdir(parents=True)
        base = os.path.realpath(tmp_path / "a" / "root.dag")
        tree = _DiskTree(base)
        for ref in ("b/x.dag", "./b/../b/./x.dag", "../a/b//x.dag",
                    "missing/../b/x.dag", "../../../../../x.dag",
                    str(tmp_path / "a" / "b" / "x.dag")):
            assert tree.resolve(base, ref) == realpath_of(base, ref), ref

    def test_symlink_loop_is_a_typed_error(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "loop1").symlink_to("loop2")
        (tmp_path / "sub" / "loop2").symlink_to("loop1")
        (tmp_path / "a.dag").write_text("SPLICE b sub/loop1/../x.dag\n")
        with pytest.raises(DagmanImportError, match="cannot read"):
            import_dagman_file(tmp_path / "a.dag")
        base = os.path.realpath(tmp_path / "a.dag")
        for ref in ("sub/loop1", "sub/loop1/../x.dag", "sub/./loop2/x"):
            assert _DiskTree(base).resolve(base, ref) == realpath_of(base, ref)


#: Entries of the generated trees: directories, files and links of each
#: kind (to a directory, to a file, relative, absolute, dangling, loops).
NAMES = ("d1", "d2", "f.dag", "to_d2", "to_up", "abs_d1", "to_file",
         "dangle", "loop1", "missing", ".", "..", "")


def build_tree(root: str, links: list[tuple[str, str, bool]]) -> None:
    os.makedirs(os.path.join(root, "d1", "d2", "d1"), exist_ok=True)
    os.makedirs(os.path.join(root, "d2"), exist_ok=True)
    for where in ("", "d1", "d1/d2"):
        with open(os.path.join(root, where, "f.dag"), "w"):
            pass
    targets = {
        "to_d2": "d2", "to_up": "..", "abs_d1": os.path.join(root, "d1"),
        "to_file": "f.dag", "dangle": "nowhere", "loop1": "loop1",
    }
    for where, name, present in links:
        if present:
            path = os.path.join(root, where, name)
            if not os.path.lexists(path):
                os.symlink(targets[name], path)


@given(
    links=st.lists(
        st.tuples(st.sampled_from(["", "d1", "d1/d2", "d2"]),
                  st.sampled_from(["to_d2", "to_up", "abs_d1", "to_file",
                                   "dangle", "loop1"]),
                  st.booleans()),
        max_size=8,
    ),
    base_dir=st.sampled_from(["", "d1", "d1/d2", "d2", "d1/d2/d1"]),
    refs=st.lists(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=6),
        min_size=1, max_size=8,
    ),
)
def test_resolve_equals_realpath_on_generated_trees(links, base_dir, refs):
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.realpath(tmp)
        build_tree(root, links)
        base = os.path.join(root, base_dir, "f.dag")
        tree = _DiskTree(os.path.join(root, "f.dag"))
        for parts in refs:
            ref = "/".join(parts)
            assert tree.resolve(base, ref) == realpath_of(base, ref), ref
