"""What a process loads at start-up, and the package's public names.

``build`` checks no certificate, so it may not load ``soficwreath.verify``;
``report`` reads a certificate through ``verify``'s one reader and loads it.
The package resolves the names it exports from ``verify`` on first access.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import soficwreath as sw

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PUBLIC = [
    "AlmostHomReport", "Budget", "Certificate", "CertificateError", "CoordAction", "DefectReport",
    "DetailedReport", "DirectSum", "EXPANSION_CAP", "FinSuppMap", "GoodBlock",
    "Group", "Permutation", "SoficApprox", "WindowSets", "WindowViolationError", "WreathApprox",
    "WreathElement", "WreathProduct", "action_distance", "agreement_fraction",
    "bigperm", "build", "check_almost_homomorphism", "check_good_block_bound", "compose",
    "compose_actions", "compute_good_blocks", "construct", "coord_action", "cyclic",
    "cyclic_quotient", "derive_windows", "detailed_reports", "expand_explicit", "finite_from_table",
    "fixed_fraction", "free", "group_from_descriptor", "groups", "hamming", "identity_action",
    "integers", "is_sofic_approx", "jsonutil", "lamp_action",
    "make_budget", "oracle_check", "perm", "perturb", "quotient_by_images", "random_permutation",
    "regular_rep", "sofic", "symmetric", "transposition", "verify", "verify_construction",
    "wreath_approx_from_json", "wreath_product",
]

RUN_THEN_LIST_MODULES = """
import json, sys
import soficwreath.cli
code = soficwreath.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "verify_loaded": "soficwreath.verify" in sys.modules}))
"""


def run(args: list[str], cwd: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_build_never_loads_verify_and_verify_still_runs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "format": 1,
        "groups": {"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "cyclic", "n": 3}},
        "approximations": {"lamp": {"kind": "regular"}, "base": {"kind": "regular"}},
        "F": "all",
        "eps": "1/2",
    }))
    artifact, certificate = tmp_path / "artifact.json", tmp_path / "certificate.json"

    build = run(["-c", RUN_THEN_LIST_MODULES, "build", "--config", str(config), "--out", str(artifact)], tmp_path)
    assert build.returncode == 0, build.stderr
    assert json.loads(build.stdout.splitlines()[-1]) == {"code": 0, "verify_loaded": False}

    verify = run(["-m", "soficwreath", "verify", "--approx", str(artifact), "--oracle"], tmp_path)
    assert verify.returncode == 0, verify.stderr
    certificate.write_text(verify.stdout)
    assert json.loads(verify.stdout)["pass"] is True
    for format_, starts in (("text", "sofic certificate: PASS"), ("json", verify.stdout)):
        report = run(["-c", RUN_THEN_LIST_MODULES, "report", "--certificate", str(certificate), "--format", format_], tmp_path)
        assert report.returncode == 0, report.stderr
        assert report.stdout.startswith(starts)
        assert json.loads(report.stdout.splitlines()[-1]) == {"code": 0, "verify_loaded": True}


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert sorted(sw.__all__) == PUBLIC

    def test_each_name_is_its_defining_object(self):
        for name in sw.__all__:
            obj = getattr(sw, name)
            if isinstance(obj, type(sw)):
                assert obj is sys.modules[f"soficwreath.{name}"]
            elif name == "EXPANSION_CAP":
                assert obj is sw.bigperm.EXPANSION_CAP
            else:
                assert vars(sys.modules[obj.__module__])[name] is obj, name

    def test_star_import_resolves_every_name(self):
        namespace = {}
        exec("from soficwreath import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
        assert namespace["verify"] is sys.modules["soficwreath.verify"]
        assert namespace["verify_construction"] is sw.verify.verify_construction

    def test_lazy_names_are_read_from_verify_on_each_access(self, monkeypatch):
        sentinel = object()
        monkeypatch.setattr(sw.verify, "verify_construction", sentinel)
        assert sw.verify_construction is sentinel
        assert "verify_construction" not in vars(sw)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sw.no_such_name
