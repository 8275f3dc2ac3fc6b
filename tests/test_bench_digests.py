"""The benchmark workloads at seed 1 build and verify to their recorded digests.

``perfbench/digests.json`` holds the sha256 of each workload's artifact and
certificate, which the benchmark checks every round.  Running the same
configs through ``soficwreath.cli.main`` here makes any kernel change that
alters a certificate fail the test suite, not only the benchmark.
"""
import hashlib
import importlib.util
import json
import pathlib

import pytest

from soficwreath.cli import OK, main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload", ["lamplighter", "wide-base", "finite-oracle"])
def test_workload_outputs_match_recorded_digests(workload, tmp_path, capsys):
    config = tmp_path / "config.json"
    assert load_workloads().main(["--workload", workload, "--seed", str(SEED), "--out", str(config)]) == 0
    artifact = tmp_path / "artifact.json"
    assert main(["build", "--config", str(config), "--out", str(artifact)]) == OK
    capsys.readouterr()
    oracle = ["--oracle"] if workload == "finite-oracle" else []
    assert main(["verify", "--approx", str(artifact), *oracle]) == OK
    certificate = capsys.readouterr().out.encode()
    expected = json.loads((PERFBENCH / "digests.json").read_text())[workload][str(SEED)]
    assert {"artifact": sha256(artifact.read_bytes()), "certificate": sha256(certificate)} == expected
