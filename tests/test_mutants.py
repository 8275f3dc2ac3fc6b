"""The mutation table of ``tests/mutants.py`` still names code that exists.

``tests/run_mutants.py`` applies each mutant by exact text replacement, so
each ``old`` snippet must occur exactly once in its file, and each test it
lists, down to its parametrize id, must still be collected.
"""
import os
import pathlib
import subprocess
import sys

import run_mutants
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


def stub_runs(monkeypatch, baseline_times_out: bool):
    """``run_mutants`` with pytest stubbed out: every listed test is collected,
    each mutated run exceeds the timeout, and the run without a mutant passes
    every listed test unless ``baseline_times_out``."""
    monkeypatch.setattr(run_mutants, "run_pytest", lambda args, mutant=None: [node for m in MUTANTS for node in m.tests])

    def run_listed(tests, mutant=None):
        if mutant is not None or baseline_times_out:
            raise subprocess.TimeoutExpired("pytest", run_mutants.TIMEOUT)
        return dict.fromkeys(tests, "PASSED"), "stub"

    monkeypatch.setattr(run_mutants, "run_listed", run_listed)


def test_a_mutant_whose_tests_time_out_counts_as_killed(monkeypatch, capsys):
    stub_runs(monkeypatch, baseline_times_out=False)
    first, second = MUTANTS[:2]
    assert run_mutants.main([first.id, second.id]) == 0
    rows = capsys.readouterr().out.splitlines()
    width = max(len(first.id), len(second.id))
    assert rows[2] == f"{first.id:{width}}  timeout        -/{len(first.tests):<6}  no result within {run_mutants.TIMEOUT} s"
    assert rows[-1] == "score: 2/2 killed"


def test_a_baseline_that_times_out_is_exit_two(monkeypatch, capsys):
    stub_runs(monkeypatch, baseline_times_out=True)
    assert run_mutants.main([MUTANTS[0].id]) == 2
    err = f"the listed tests did not finish within {run_mutants.TIMEOUT} s without a mutant\n"
    assert capsys.readouterr().err == err
