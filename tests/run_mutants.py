"""Run the mutation table of ``tests/mutants.py`` and print what it kills.

    python3 tests/run_mutants.py [MUTANT_ID ...]

For each mutant (all of them when no id is given) the script copies the
tree (``src``, ``tests``, ``demos``, ``perfbench`` and ``pyproject.toml``)
into a temporary directory, applies the one replacement there and runs only
the mutant's tests with pytest, so tests that start a subprocess see the
mutant too.  A mutant is killed when every test it lists fails.  It prints
one row per mutant and a score, and exits 1 when any mutant survives.
It needs only the standard library and pytest; it is not part of Tier-1.
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


def failed_tests(mutant) -> tuple[set[str], str]:
    """The listed tests that fail with ``mutant`` applied, and pytest's last line."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        target = tree / "src" / "soficwreath" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.id}: the old snippet does not occur exactly once in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, capture_output=True, text=True, timeout=1800,
        )
    lines = result.stdout.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))}
    return failed & set(mutant.tests), lines[-1] if lines else result.stderr.strip()


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    width = max(len(m.id) for m in chosen)
    killed = 0
    print(f"{'mutant':{width}}  verdict   failed/listed  pytest")
    for mutant in chosen:
        failed, summary = failed_tests(mutant)
        verdict = "killed" if len(failed) == len(mutant.tests) else "SURVIVED"
        killed += verdict == "killed"
        print(f"{mutant.id:{width}}  {verdict:8}  {len(failed):>6}/{len(mutant.tests):<6}  {summary}")
    print(f"score: {killed}/{len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
