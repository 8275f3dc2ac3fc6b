"""The mutation table of ``tests/mutants.py`` still names code that exists.

``tests/run_mutants.py`` applies each mutant by exact text replacement, so
each ``old`` snippet must occur exactly once in its file, and each test it
lists, down to its parametrize id, must still be collected.
"""
import os
import pathlib
import subprocess
import sys

from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


def test_each_old_snippet_occurs_once_and_is_changed():
    for m in MUTANTS:
        text = (ROOT / "src" / "soficwreath" / m.file).read_text()
        assert text.count(m.old) == 1, m.id
        assert m.new != m.old, m.id


def collected_node_ids(files) -> set[str]:
    """The node ids pytest collects from ``files``, parametrize ids included."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    return set(result.stdout.splitlines())


def test_each_listed_test_is_defined(request):
    """Each listed node id, parametrize id included, is one pytest collects.
    The ids this session collected are read first; only files it did not
    collect in full (a run of one file, or with -k) are collected again."""
    listed = {node for m in MUTANTS for node in m.tests}
    assert all(m.tests for m in MUTANTS)
    assert all(node.startswith("tests/test_") and "::" in node for node in listed)
    collected = {item.nodeid for item in request.session.items}
    if missing := listed - collected:
        collected |= collected_node_ids(sorted({node.split("::")[0] for node in missing}))
    assert sorted(listed - collected) == []
