"""Run the mutation table of ``tests/mutants.py`` and print what it kills.

    python3 tests/run_mutants.py [MUTANT_ID ...]

For each mutant (all of them when no id is given) the script copies the
tree (``src``, ``tests``, ``demos``, ``perfbench`` and ``pyproject.toml``)
into a temporary directory, applies the one replacement there and runs only
the mutant's tests with pytest, so tests that start a subprocess see the
mutant too.  A mutant is killed when every test it lists fails.  A kill
counts only if those tests pass without it, so the script first runs the
union of the listed tests once on an unmutated copy: it exits 2 naming each
one that does not pass, a failing test or a node id that pytest does not
collect.
Then it prints one row per mutant and a score, and exits 1 when any mutant
survives.  It needs only the standard library and pytest; it is not part of
Tier-1.
"""
from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml")


def run_pytest(args, mutant=None) -> list[str]:
    """pytest's output lines for ``args`` on a copy of the tree, with ``mutant``
    applied when one is given and the copy's path taken out; the summary is last."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        if mutant is not None:
            target = tree / "src" / "soficwreath" / mutant.file
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.id}: the old snippet does not occur exactly once in {mutant.file}")
            target.write_text(text.replace(mutant.old, mutant.new))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
            cwd=tree, capture_output=True, text=True, timeout=1800,
        )
    return (result.stderr + result.stdout).replace(f"{tree}/", "").splitlines()


def run_listed(tests, mutant=None) -> tuple[dict[str, str], str]:
    """The outcome pytest reports for each of ``tests``, by node id, and its summary line."""
    lines = run_pytest(["-rA", *tests], mutant)
    outcomes = {}
    for line in lines:
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR") and rest.startswith("tests/"):
            outcomes.setdefault(rest.split()[0], word)
    return outcomes, last_line(lines)


def last_line(lines: list[str]) -> str:
    return next((line for line in reversed(lines) if line.strip()), "")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    listed = sorted({test for m in chosen for test in m.tests})
    # pytest runs nothing when one node id is unknown, so collect the files first
    collected = set(run_pytest(["--collect-only", *sorted({test.split("::")[0] for test in listed})]))
    outcomes, summary = run_listed([test for test in listed if test in collected])
    not_passing = [test for test in listed if outcomes.get(test) != "PASSED"]
    if not_passing:
        print("these listed tests do not pass without a mutant, so no kill of theirs would count:", file=sys.stderr)
        for test in not_passing:
            print(f"  {outcomes.get(test, 'NOT COLLECTED')}  {test}", file=sys.stderr)
        return 2
    print(f"baseline: all {len(listed)} listed tests pass without a mutant ({summary})")
    width = max(len(m.id) for m in chosen)
    killed = 0
    print(f"{'mutant':{width}}  verdict   failed/listed  pytest")
    for mutant in chosen:
        outcomes, summary = run_listed(mutant.tests, mutant)
        failed = sum(outcomes.get(test) in ("FAILED", "ERROR") for test in mutant.tests)
        verdict = "killed" if failed == len(mutant.tests) else "SURVIVED"
        killed += verdict == "killed"
        print(f"{mutant.id:{width}}  {verdict:8}  {failed:>6}/{len(mutant.tests):<6}  {summary}")
    print(f"score: {killed}/{len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
