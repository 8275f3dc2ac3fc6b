"""The mutation table of ``tests/mutants.py`` still names code that exists.

``tests/run_mutants.py`` applies each mutant by exact text replacement, so
each ``old`` snippet must occur exactly once in its file, and each test it
lists must still be defined.
"""
import pathlib

from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


def test_each_old_snippet_occurs_once_and_is_changed():
    for m in MUTANTS:
        text = (ROOT / "src" / "soficwreath" / m.file).read_text()
        assert text.count(m.old) == 1, m.id
        assert m.new != m.old, m.id


def test_each_listed_test_is_defined():
    for m in MUTANTS:
        assert m.tests, m.id
        for node in m.tests:
            path, *names = node.split("::")
            source = (ROOT / path).read_text()
            assert path.startswith("tests/test_") and names, node
            for name in names[:-1]:
                assert f"class {name}" in source, node
            assert f"def {names[-1].split('[')[0]}(" in source, node
