"""The benchmark's tracer runs on the current source and sees the pinned edges.

``perfbench/tracer.py`` wraps library functions by name, and
``perfbench/run.py`` checks, on Z/2 wr Z/3, that the traced call counts
match hand-derived ones.  Running the same check here makes a source change
that deletes a wrapped name, or moves a pinned pair loop, fail the test
suite, not only the traced benchmark.
"""
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def traced(trace: pathlib.Path, args: list[str], cwd: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(trace), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_traced_build_and_oracle_verify_match_pinned_edges(tmp_path):
    run = load_run()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run.CONSERVATION_CONFIG))
    artifact = tmp_path / "artifact.json"
    traces = tmp_path / "build.trace", tmp_path / "verify.trace"

    build = traced(traces[0], ["build", "--config", str(config), "--out", str(artifact)], tmp_path)
    assert build.returncode == 0, build.stderr
    verify = traced(traces[1], ["verify", "--approx", str(artifact), "--oracle"], tmp_path)
    assert verify.returncode == 0, verify.stderr
    assert json.loads(verify.stdout)["pass"] is True

    # read_trace raises when wrappers were left installed or the accounting does not balance
    edges = run.merge([run.read_trace(path) for path in traces])["edges"]
    assert {edge: edges.get(edge) for edge in run.CONSERVATION_EXPECTED} == run.CONSERVATION_EXPECTED
