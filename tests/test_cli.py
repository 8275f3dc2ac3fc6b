import json
import os
import pathlib
import random
import sys
from fractions import Fraction

import pytest

import soficwreath as sw
from helpers import report_witnesses, shown_witnesses, with_values
from soficwreath import cli, construct, verify
from soficwreath.bigperm import CoordAction
from soficwreath.cli import CERTIFICATE, OK, ORACLE, USAGE, main
from soficwreath.perm import Permutation


def small_config(**overrides):
    config = {
        "format": 1,
        "groups": {"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "cyclic", "n": 3}},
        "approximations": {"lamp": {"kind": "regular"}, "base": {"kind": "regular"}},
        "F": "all",
        "eps": "1/2",
        "seed": 0,
        "expansion_cap": 1000000,
    }
    config.update(overrides)
    return config


def lamplighter_config():
    return {
        "format": 1,
        "groups": {"lamp": {"kind": "integers"}, "base": {"kind": "integers"}},
        "approximations": {
            "lamp": {"kind": "cyclic-quotient", "size": 64},
            "base": {"kind": "cyclic-quotient", "size": 64},
        },
        "F": [
            {"left": [[0, 1]], "right": 0},
            {"left": [], "right": 1},
            {"left": [], "right": -1},
        ],
        "eps": "1/10",
        "seed": 0,
    }


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


FIRST_PAIR = '({"left":[],"right":0}, {"left":[],"right":0})'
FIRST_ELEMENT = '{"left":[[0,1]],"right":0}'


@pytest.fixture
def built_artifact(tmp_path, capsys):
    config = write(tmp_path / "config.json", small_config())
    out = str(tmp_path / "artifact.json")
    assert main(["build", "--config", config, "--out", out]) == OK
    capsys.readouterr()
    return out


class TestBuild:
    def test_summary_output(self, tmp_path, capsys):
        config = write(tmp_path / "config.json", small_config())
        out = str(tmp_path / "artifact.json")
        assert main(["build", "--config", config, "--out", out]) == OK
        stdout = capsys.readouterr().out
        assert "good blocks: 3/3" in stdout
        assert "targets: 24" in stdout
        assert "eps = 1/2" in stdout
        artifact = json.loads(pathlib.Path(out).read_text())
        assert artifact["kind"] == "wreath-approx"
        assert artifact["expansion_cap"] == 1000000

    def test_nonpositive_eps_is_usage_error(self, tmp_path, capsys):
        config = write(tmp_path / "config.json", small_config(eps="0"))
        code = main(["build", "--config", config, "--out", str(tmp_path / "x.json")])
        assert code == USAGE
        assert "eps" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["build", "--config", str(path), "--out", str(tmp_path / "x.json")]) == USAGE

    def test_missing_key_is_usage_error(self, tmp_path, capsys):
        config = small_config()
        del config["eps"]
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert "eps" in capsys.readouterr().err

    def test_float_eps_rejected(self, tmp_path, capsys):
        config = write(tmp_path / "config.json", small_config(eps=0.5))
        assert main(["build", "--config", config, "--out", str(tmp_path / "x.json")]) == USAGE

    def test_failed_certificate_is_exit_two(self, tmp_path, capsys):
        config = small_config(
            approximations={
                "lamp": {"kind": "regular"},
                "base": {"kind": "perturb", "base": {"kind": "regular"}, "rate": "1", "seed": 5},
            }
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == CERTIFICATE
        err = capsys.readouterr().err
        assert "certificate failure" in err
        assert "base approximation" in err

    @pytest.mark.parametrize("value", ["1e-5000", "1E+4_301", "1e-100000000"])
    @pytest.mark.parametrize("field", ["eps", "rate"])
    def test_exponent_over_the_digit_limit_is_usage_error(self, tmp_path, capsys, field, value):
        # Fraction builds 10**|exponent| before anything is checked, which takes seconds at 1e-10000000
        if field == "eps":
            config = small_config(eps=value)
        else:
            base = {"kind": "perturb", "base": {"kind": "regular"}, "rate": value, "seed": 5}
            config = small_config(approximations={"lamp": {"kind": "regular"}, "base": base})
        out = tmp_path / "x.json"
        assert main(["build", "--config", write(tmp_path / "config.json", config), "--out", str(out)]) == USAGE
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"error: exponent of {value!r} exceeds {limit} in magnitude\n"
        assert not out.exists()

    def test_long_fraction_part_is_usage_error_naming_the_value(self, tmp_path, capsys):
        # Fraction would build 10**1000001 before int refuses the fraction part's digits
        value = "0." + "0" * 1_000_000 + "1"
        out = tmp_path / "x.json"
        assert main(["build", "--config", write(tmp_path / "config.json", small_config(eps=value)), "--out", str(out)]) == USAGE
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"error: '0.0000000000...0000000000001' has a run of more than {limit} digits\n"
        assert not out.exists()

    def test_eps_whose_tolerances_cannot_be_printed_fails_before_any_certificate(self, tmp_path, capsys, monkeypatch):
        # eps = 10**-4298 parses, but the input tolerance has more digits than an int may print
        monkeypatch.setattr(construct, "require_sofic", lambda *args: pytest.fail("a certificate ran"))
        out = tmp_path / "artifact.json"
        assert main(["build", "--config", write(tmp_path / "config.json", small_config(eps="1e-4298")), "--out", str(out)]) == USAGE
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"error: eps gives tolerances of more than {limit} digits, which no artifact can print\n"
        assert not out.exists()

    def test_artifact_that_cannot_be_written_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def write_part_then_fail(artifact, write):
            write(json.dumps(artifact)[:100])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "dump_indented", write_part_then_fail)
        config = write(tmp_path / "config.json", small_config())
        out = tmp_path / "artifact.json"
        assert main(["build", "--config", config, "--out", str(out)]) == USAGE
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        # an artifact already at --out is kept whole
        out.write_text("earlier artifact")
        assert main(["build", "--config", config, "--out", str(out)]) == USAGE
        assert out.read_text() == "earlier artifact"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json", "config.json"]

    def test_window_error_prints_elements_a_config_can_hold(self, tmp_path, capsys):
        # the free-quotient base certifies a radius-1 ball, whose products leave it
        base = {"kind": "free-quotient", "degree": 6, "images": {"seed": 1}, "radius": 1}
        config = small_config(F=[{"left": [], "right": [1]}, {"left": [], "right": [2]}])
        config["groups"]["base"] = {"kind": "free", "rank": 2}
        config["approximations"]["base"] = base
        out = tmp_path / "artifact.json"
        assert main(["build", "--config", write(tmp_path / "config.json", config), "--out", str(out)]) == USAGE
        err = capsys.readouterr().err
        head, listed = err.rstrip("\n").split(": ", 2)[1:]
        assert err.startswith("error: ") and head == "sofic check needs elements outside the window"
        assert not out.exists()
        group = sw.free(2)
        elements = [group.decode(json.loads(text)) for text in listed.split(", ")]
        assert len(elements) == 5 and all(len(g) == 2 for g in elements)

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == USAGE

    @pytest.mark.parametrize(
        "eps, message",
        [
            ("1/0", "zero denominator"),
            ({"num": True, "den": 2}, "not a rational"),
            ({"num": 1, "den": True}, "not a rational"),
        ],
        ids=["zero_den", "bool_num", "bool_den"],
    )
    def test_zero_denominator_eps_is_usage_error(self, tmp_path, capsys, eps, message):
        config = write(tmp_path / "config.json", small_config(eps=eps))
        assert main(["build", "--config", config, "--out", str(tmp_path / "x.json")]) == USAGE
        assert message in capsys.readouterr().err

    def test_all_targets_over_infinite_group_is_usage_error(self, tmp_path, capsys):
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "integers"}},
            approximations={
                "lamp": {"kind": "regular"},
                "base": {"kind": "cyclic-quotient", "size": 8, "radius": 2},
            },
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert '"F": "all" needs finite' in capsys.readouterr().err

    def test_regular_approximation_over_infinite_group_is_usage_error(self, tmp_path, capsys):
        config = small_config(
            groups={"lamp": {"kind": "free", "rank": 1}, "base": {"kind": "cyclic", "n": 3}},
            F=[{"left": [[0, [1]]], "right": 0}],
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == 'error: "regular" approximation needs a finite group\n'

    @pytest.mark.parametrize("seed", [True, 1.5, "abc", [1]], ids=["true", "float", "string", "list"])
    def test_non_integer_seed_is_usage_error(self, tmp_path, capsys, seed):
        path = write(tmp_path / "config.json", small_config(seed=seed))
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: seed must be an integer, got {seed!r}\n"

    @pytest.mark.parametrize(
        "base, base_approx, target, message",
        [
            (
                {"kind": "cyclic", "n": 3},
                {"kind": "perturb", "base": {"kind": "regular"}, "rate": "0", "seed": 1.5},
                0,
                "perturb seed must be an integer, got 1.5",
            ),
            (
                {"kind": "free", "rank": 1},
                {"kind": "free-quotient", "degree": 2, "images": {"seed": "abc"}, "radius": 1},
                [1],
                "images seed must be an integer, got 'abc'",
            ),
        ],
        ids=["perturb", "free-quotient"],
    )
    def test_non_integer_nested_seed_is_usage_error(self, tmp_path, capsys, base, base_approx, target, message):
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": base},
            approximations={"lamp": {"kind": "regular"}, "base": base_approx},
            F=[{"left": [], "right": target}],
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"F": [{"left": [], "right": True}]}, "not an element of cyclic(3): True"),
            (
                {
                    "groups": {"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "integers"}},
                    "approximations": {
                        "lamp": {"kind": "regular"},
                        "base": {"kind": "cyclic-quotient", "size": 8, "radius": True},
                    },
                    "F": [{"left": [[0, 1]], "right": 0}],
                },
                "radius must be an integer, got True",
            ),
        ],
        ids=["element", "radius"],
    )
    def test_boolean_element_is_usage_error(self, tmp_path, capsys, overrides, message):
        path = write(tmp_path / "config.json", small_config(**overrides))
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert message in capsys.readouterr().err

    def test_file_approximation_with_string_carrier_size_is_usage_error(self, tmp_path, capsys):
        stored = sw.regular_rep(sw.cyclic(3)).to_json()
        stored["carrier_size"] = "3"
        base = {"kind": "file", "path": write(tmp_path / "base.json", stored)}
        config = small_config(approximations={"lamp": {"kind": "regular"}, "base": base})
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "artifact.json")]) == USAGE
        assert capsys.readouterr().err == "error: carrier_size must be a positive integer, got '3'\n"

    @pytest.mark.parametrize("cap", ["big", True, 0])
    def test_bad_expansion_cap_is_usage_error(self, tmp_path, capsys, cap):
        config = write(tmp_path / "config.json", small_config(expansion_cap=cap))
        assert main(["build", "--config", config, "--out", str(tmp_path / "x.json")]) == USAGE
        assert "expansion_cap must be a positive integer" in capsys.readouterr().err

    def test_file_approximation_path_must_be_a_string(self, tmp_path, capsys):
        # open() takes an int as a file descriptor; this one holds a valid approximation
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as fh:
            json.dump(sw.regular_rep(sw.cyclic(3)).to_json(), fh)
        base = {"kind": "file", "path": read_fd}
        config = small_config(approximations={"lamp": {"kind": "regular"}, "base": base})
        path = write(tmp_path / "config.json", config)
        try:
            assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
            err = capsys.readouterr().err
            assert err == f"error: file approximation path must be a string, got {read_fd}\n"
        finally:
            try:
                os.close(read_fd)
            except OSError:  # already closed by a reader that took the descriptor
                pass

    @pytest.mark.parametrize(
        "groups, base_approx, target",
        [
            (
                {"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "integers"}},
                {"kind": "cyclic-quotient", "size": 8, "radius": -2},
                0,
            ),
            (
                {"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "free", "rank": 1}},
                {"kind": "free-quotient", "degree": 2, "images": [[1, 0]], "radius": -2},
                [1],
            ),
        ],
        ids=["cyclic-quotient", "free-quotient"],
    )
    def test_negative_radius_is_usage_error(self, tmp_path, capsys, groups, base_approx, target):
        config = small_config(
            groups=groups,
            approximations={"lamp": {"kind": "regular"}, "base": base_approx},
            F=[{"left": [], "right": target}],
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == "error: radius must be non-negative, got -2\n"

    @pytest.mark.parametrize("images", [5, None, [5], [[1, 0], 5], "ab"], ids=["int", "null", "int_list", "mixed", "string"])
    def test_free_quotient_images_of_wrong_shape_are_usage_error(self, tmp_path, capsys, images):
        base = {"kind": "free-quotient", "degree": 2, "images": images, "radius": 1}
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "free", "rank": 1}},
            approximations={"lamp": {"kind": "regular"}, "base": base},
            F=[{"left": [], "right": [1]}],
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == "error: free-quotient images must be lists of integers\n"

    def test_free_quotient_with_fewer_images_than_the_rank_is_usage_error(self, tmp_path, capsys):
        base = {"kind": "free-quotient", "degree": 2, "images": [[1, 0]], "radius": 1}
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "free", "rank": 2}},
            approximations={"lamp": {"kind": "regular"}, "base": base},
            F=[{"left": [], "right": [1]}],
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == "error: need 2 images, got 1\n"

    @pytest.mark.parametrize("rate", ["3/2", "-1/2"], ids=["above_one", "below_zero"])
    def test_perturb_rate_outside_zero_one_is_usage_error(self, tmp_path, capsys, rate):
        base = {"kind": "perturb", "base": {"kind": "regular"}, "rate": rate, "seed": 5}
        config = small_config(approximations={"lamp": {"kind": "regular"}, "base": base})
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == "error: rate must lie in [0, 1]\n"

    def test_boolean_free_quotient_image_is_usage_error(self, tmp_path, capsys):
        base = {"kind": "free-quotient", "degree": 2, "images": [[True, False]], "radius": 1}
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "free", "rank": 1}},
            approximations={"lamp": {"kind": "regular"}, "base": base},
            F=[{"left": [], "right": [1]}],
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == "error: free-quotient images must be lists of integers\n"

    @pytest.mark.parametrize(
        "groups, base_approx, targets, message",
        [
            ({"lamp": {"kind": "cyclic", "n": True}}, None, "all", "group n must be an integer, got True"),
            ({"lamp": {"kind": "symmetric", "k": 2.0}}, None, "all", "group k must be an integer, got 2.0"),
            (
                {"base": {"kind": "free", "rank": True}},
                {"kind": "free-quotient", "degree": 2, "images": [[1, 0]], "radius": 1},
                [{"left": [], "right": [1]}],
                "group rank must be an integer, got True",
            ),
            (
                {"lamp": {"kind": "table", "table": [[False, True], [True, False]]}},
                None,
                "all",
                "group table must be a list of lists of integers, got [[False, True], [True, False]]",
            ),
        ],
        ids=["cyclic", "symmetric", "free", "table"],
    )
    def test_non_integer_group_parameter_is_usage_error(self, tmp_path, capsys, groups, base_approx, targets, message):
        config = small_config(F=targets)
        config["groups"].update(groups)
        if base_approx is not None:
            config["approximations"]["base"] = base_approx
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "base_approx, message",
        [
            (5, "bad approximation descriptor: 5"),
            ({"kind": "cyclic-quotient", "size": 8}, "cyclic-quotient needs the integers as its group"),
            (
                {"kind": "free-quotient", "degree": 2, "images": {"seed": 1}, "radius": 1},
                "free-quotient needs a free group",
            ),
            ({"kind": "bogus"}, "unknown approximation kind 'bogus'"),
        ],
        ids=["not_an_object", "cyclic_quotient_of_finite", "free_quotient_of_finite", "unknown_kind"],
    )
    def test_bad_approximation_descriptor_is_usage_error(self, tmp_path, capsys, base_approx, message):
        config = small_config(approximations={"lamp": {"kind": "regular"}, "base": base_approx})
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_file_approximation_of_another_group_is_usage_error(self, tmp_path, capsys):
        stored = write(tmp_path / "base.json", sw.regular_rep(sw.cyclic(2)).to_json())
        config = small_config(approximations={"lamp": {"kind": "regular"}, "base": {"kind": "file", "path": stored}})
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: approximation file {stored} is for a different group\n"

    def test_seeded_free_quotient_builds_the_same_bytes_and_verifies(self, tmp_path, capsys):
        # "images": {"seed": N} draws one permutation per generator from random.Random(N)
        base = {"kind": "free-quotient", "degree": 20000, "images": {"seed": 7}, "radius": 8}
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "free", "rank": 1}},
            approximations={"lamp": {"kind": "regular"}, "base": base},
            F=[{"left": [], "right": [1]}, {"left": [[[], 1]], "right": []}],
        )
        path = write(tmp_path / "config.json", config)
        outs = tmp_path / "a.json", tmp_path / "b.json"
        for out in outs:
            assert main(["build", "--config", path, "--out", str(out)]) == OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rule = dict((tuple(g), p["image"]) for g, p in json.loads(outs[0].read_text())["base_approx"]["rule"])
        assert rule[(1,)] == list(sw.perm.draw_permutation(20000, random.Random(7)).image)
        capsys.readouterr()
        assert main(["verify", "--approx", str(outs[0])]) == OK
        assert json.loads(capsys.readouterr().out)["pass"] is True


class TestDeepJson:
    """JSON nested deeper than the parser's recursion limit is malformed input."""

    @pytest.fixture
    def deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        return str(path)

    def expect_usage(self, argv, deep, capsys):
        assert main(argv) == USAGE
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"

    def test_config(self, deep, tmp_path, capsys):
        self.expect_usage(["build", "--config", deep, "--out", str(tmp_path / "x.json")], deep, capsys)

    def test_file_approximation(self, deep, tmp_path, capsys):
        base = {"kind": "file", "path": deep}
        config = small_config(approximations={"lamp": {"kind": "regular"}, "base": base})
        path = write(tmp_path / "config.json", config)
        self.expect_usage(["build", "--config", path, "--out", str(tmp_path / "x.json")], deep, capsys)

    def test_artifact(self, deep, capsys):
        self.expect_usage(["verify", "--approx", deep], deep, capsys)

    def test_certificate(self, deep, capsys):
        self.expect_usage(["report", "--certificate", deep], deep, capsys)


class TestVerify:
    def test_exact_artifact_with_oracle(self, built_artifact, capsys):
        assert main(["verify", "--approx", built_artifact, "--oracle"]) == OK
        captured = capsys.readouterr()
        cert = json.loads(captured.out)
        assert cert["pass"] is True
        assert cert["kind"] == "sofic-certificate"
        assert "oracle: all distances confirmed on 24 points" in captured.err

    def test_lamplighter_oracle_cap_exceeded(self, tmp_path, capsys):
        config = write(tmp_path / "config.json", lamplighter_config())
        out = str(tmp_path / "artifact.json")
        assert main(["build", "--config", config, "--out", out]) == OK
        assert main(["verify", "--approx", out]) == OK
        capsys.readouterr()
        assert main(["verify", "--approx", out, "--oracle"]) == ORACLE
        assert "oracle unavailable" in capsys.readouterr().err

    def test_oracle_runs_on_a_carrier_of_exactly_its_cap(self, tmp_path, capsys):
        # Z/2 wr Z/3 acts on 2^3 * 3 = 24 points: a cap of 24 expands them, one of 23 does not
        for cap, code, err in (
            (24, OK, "oracle: all distances confirmed on 24 points\n"),
            (23, ORACLE, "oracle unavailable: carrier 24 exceeds cap 23\n"),
        ):
            config = write(tmp_path / "config.json", small_config(F=[{"left": [[0, 1]], "right": 1}], expansion_cap=cap))
            out = str(tmp_path / f"artifact-{cap}.json")
            assert main(["build", "--config", config, "--out", out]) == OK
            capsys.readouterr()
            assert main(["verify", "--approx", out, "--oracle"]) == code
            assert capsys.readouterr().err == err

    def test_tampered_rule_table_is_exit_two(self, built_artifact, tmp_path, capsys):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        # corrupt one stored lamp permutation: 0 <-> 1 swap on the value at
        # the lamp generator, breaking the stored approximation's certificate
        key, perm = artifact["lamp_approx"]["rule"][1]
        perm["image"][0], perm["image"][1] = perm["image"][1], perm["image"][0]
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered]) == CERTIFICATE
        err = capsys.readouterr().err
        assert "certificate failure" in err

    def test_tampered_derived_data_is_exit_two(self, built_artifact, tmp_path, capsys):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        artifact["derived"]["block"]["good"] = artifact["derived"]["block"]["good"][:-1]
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered]) == CERTIFICATE

    def test_oracle_expands_products_outside_the_closure(self, tmp_path, capsys):
        config = small_config(
            F=[{"left": [[1, 1]], "right": 1}, {"left": [], "right": 1}]
        )
        path = write(tmp_path / "config.json", config)
        out = str(tmp_path / "artifact.json")
        assert main(["build", "--config", path, "--out", out]) == OK
        capsys.readouterr()
        assert main(["verify", "--approx", out, "--oracle"]) == OK
        assert "oracle: all distances confirmed on 24 points" in capsys.readouterr().err

    def test_symmetric_lamps_build_and_pass_the_oracle(self, tmp_path, capsys):
        # a transposition and a 3-cycle do not commute, so the lamp input
        # certificate depends on the order of the factors in each product
        config = small_config(
            groups={"lamp": {"kind": "symmetric", "k": 3}, "base": {"kind": "cyclic", "n": 2}},
            F=[{"left": [[0, [1, 0, 2]]], "right": 0}, {"left": [[1, [1, 2, 0]]], "right": 1}],
        )
        path = write(tmp_path / "config.json", config)
        out = str(tmp_path / "artifact.json")
        assert main(["build", "--config", path, "--out", out]) == OK
        assert "lamp values 4" in capsys.readouterr().out
        assert main(["verify", "--approx", out, "--oracle"]) == OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is True
        assert "oracle: all distances confirmed on 72 points" in captured.err

    @pytest.mark.parametrize(
        "lamp, targets, points",
        [
            (
                {"kind": "wreath", "lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "cyclic", "n": 2}},
                [{"left": [[0, {"left": [[1, 1]], "right": 1}]], "right": 1}, {"left": [], "right": 1}],
                128,
            ),
            (
                {"kind": "direct-sum", "lamp": {"kind": "cyclic", "n": 2}, "index": {"kind": "cyclic", "n": 2}},
                [{"left": [[0, [[1, 1]]]], "right": 1}, {"left": [[1, [[0, 1], [1, 1]]]], "right": 0}],
                32,
            ),
        ],
        ids=["wreath", "direct_sum"],
    )
    def test_iterated_lamp_group_builds_verifies_and_reports(self, tmp_path, capsys, lamp, targets, points):
        # the theorem applies to its own output: the lamp group is itself a wreath product or a direct sum
        config = small_config(groups={"lamp": lamp, "base": {"kind": "cyclic", "n": 2}}, F=targets)
        out = tmp_path / "artifact.json"
        assert main(["build", "--config", write(tmp_path / "config.json", config), "--out", str(out)]) == OK
        assert json.loads(out.read_text())["group"]["lamp"] == lamp
        capsys.readouterr()
        assert main(["verify", "--approx", str(out), "--oracle"]) == OK
        captured = capsys.readouterr()
        assert captured.err == f"oracle: all distances confirmed on {points} points\n"
        assert json.loads(captured.out)["pass"] is True
        certificate = tmp_path / "certificate.json"
        certificate.write_text(captured.out)
        assert main(["report", "--certificate", str(certificate), "--format", "json"]) == OK
        assert capsys.readouterr().out == captured.out

    @pytest.mark.parametrize(
        "eps", [{"num": 1, "den": 0}, {"num": True, "den": 2}], ids=["zero_den", "bool_num"]
    )
    def test_zero_denominator_in_artifact_is_usage_error(self, built_artifact, tmp_path, capsys, eps):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        artifact["eps"] = eps
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered]) == USAGE
        assert "not a rational" in capsys.readouterr().err

    def test_non_integer_stored_cap_is_usage_error(self, built_artifact, tmp_path, capsys):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        artifact["expansion_cap"] = "big"
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered, "--oracle"]) == USAGE
        assert "expansion_cap must be a positive integer" in capsys.readouterr().err

    def test_artifact_cannot_raise_its_oracle_cap(self, tmp_path, capsys):
        # Z/2 wr Z/17 acts on 2^17 * 17 = 2,228,224 points, above the default cap
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "cyclic", "n": 17}},
            F=[{"left": [[0, 1]], "right": 0}, {"left": [], "right": 1}],
            expansion_cap=10**12,
        )
        path = write(tmp_path / "config.json", config)
        out = str(tmp_path / "artifact.json")
        assert main(["build", "--config", path, "--out", out]) == OK
        capsys.readouterr()
        assert main(["verify", "--approx", out, "--oracle"]) == ORACLE
        assert "carrier 2228224 exceeds cap 1000000" in capsys.readouterr().err

    def test_boolean_permutation_entries_are_usage_error(self, built_artifact, tmp_path, capsys):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        for _, perm in artifact["lamp_approx"]["rule"]:
            perm["image"] = [x == 1 for x in perm["image"]]
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered]) == USAGE
        err = capsys.readouterr().err
        assert err == "error: permutation degree and image entries must be JSON integers\n"

    def test_boolean_group_order_in_artifact_is_usage_error(self, built_artifact, tmp_path, capsys):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        artifact["group"]["lamp"]["n"] = True
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered]) == USAGE
        assert capsys.readouterr().err == "error: group n must be an integer, got True\n"

    @pytest.mark.parametrize(
        "part, group",
        [("lamp", {"kind": "cyclic", "n": 5}), ("lamp", {"kind": "symmetric", "k": 2}), ("base", {"kind": "integers"})],
        ids=["lamp_cyclic_5", "lamp_symmetric_2", "base_integers"],
    )
    def test_artifact_group_must_be_that_of_its_approximations(self, built_artifact, tmp_path, capsys, part, group):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        artifact["group"][part] = group
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered]) == USAGE
        assert capsys.readouterr().err == (
            "error: artifact group is not the wreath product of its lamp_approx and base_approx groups\n"
        )

    def test_window_other_than_the_rule_elements_is_usage_error(self, built_artifact, tmp_path, capsys):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        artifact["lamp_approx"]["window"].pop()
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered]) == USAGE
        assert capsys.readouterr().err == "error: rule must be defined exactly on the window\n"

    def test_missing_file_is_usage(self, tmp_path):
        assert main(["verify", "--approx", str(tmp_path / "nope.json")]) == USAGE

    @pytest.mark.parametrize("data", [[1, 2], "artifact", 3, None], ids=["list", "string", "int", "null"])
    def test_non_object_artifact_is_usage_error(self, tmp_path, capsys, data):
        path = write(tmp_path / "artifact.json", data)
        assert main(["verify", "--approx", path]) == USAGE
        assert capsys.readouterr().err == "error: artifact must be a JSON object\n"

    @pytest.mark.parametrize("carrier_size", ["3", True, 3.0, 0, -3])
    def test_bad_stored_carrier_size_is_usage_error(self, built_artifact, tmp_path, capsys, carrier_size):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        artifact["base_approx"]["carrier_size"] = carrier_size
        tampered = write(tmp_path / "tampered.json", artifact)
        assert main(["verify", "--approx", tampered]) == USAGE
        err = capsys.readouterr().err
        assert err == f"error: carrier_size must be a positive integer, got {carrier_size!r}\n"

    def test_rule_of_identity_other_than_the_identity_is_exit_two(self, built_artifact, tmp_path, monkeypatch, capsys):
        # build checks rule(1) = id once, and verify rebuilds through build; a
        # lamp action that moves every block stands in for a rule(1) other than the identity
        built = construct.lamp_action

        def moving(sigma_A, sigma_B, positions, block, f, beta):
            if f.is_identity() and beta.is_identity():
                return CoordAction(sigma_A.carrier_size, sigma_B.carrier_size, Permutation(beta.image[1:] + beta.image[:1]), {})
            return built(sigma_A, sigma_B, positions, block, f, beta)

        monkeypatch.setattr(construct, "lamp_action", moving)
        config, out = write(tmp_path / "config.json", small_config()), tmp_path / "rebuilt.json"
        assert main(["build", "--config", config, "--out", str(out)]) == CERTIFICATE
        assert capsys.readouterr() == ("", "certificate failure: rule(identity) is not the identity\n")
        assert not out.exists()
        assert main(["verify", "--approx", built_artifact]) == CERTIFICATE
        assert capsys.readouterr() == ("", "certificate failure: rule(identity) is not the identity\n")

    def test_failing_certificate_is_exit_two_with_each_failure(self, built_artifact, monkeypatch, capsys):
        built = verify.verify_construction
        monkeypatch.setattr(
            verify, "verify_construction", lambda approx: with_values(built(approx), Fraction(1, 2), Fraction(1, 2))
        )
        assert main(["verify", "--approx", built_artifact]) == CERTIFICATE
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is False
        assert captured.err == (
            f"certificate failure: multiplicative defect 1/2 at pair {FIRST_PAIR}\n"
            f"certificate failure: freeness margin 1/2 at {FIRST_ELEMENT}\n"
        )

    def test_oracle_mismatch_is_exit_two_with_each_line(self, built_artifact, monkeypatch, capsys):
        # the values pass the certificate's checks but are not the rule's distances
        built = verify.verify_construction
        monkeypatch.setattr(
            verify, "verify_construction", lambda approx: with_values(built(approx), Fraction(1, 4), Fraction(3, 4))
        )
        assert main(["verify", "--approx", built_artifact, "--oracle"]) == CERTIFICATE
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is True
        assert captured.err == (
            f"oracle mismatch: freeness distance mismatch at {FIRST_ELEMENT}: 3/4 vs 1\n"
            f"oracle mismatch: distance mismatch at pair {FIRST_PAIR}: 1/4 vs 0\n"
        )


class TestReport:
    @pytest.fixture
    def certificate_file(self, built_artifact, tmp_path, capsys):
        assert main(["verify", "--approx", built_artifact]) == OK
        cert = capsys.readouterr().out
        path = tmp_path / "certificate.json"
        path.write_text(cert)
        return str(path)

    def test_text_report(self, certificate_file, capsys):
        assert main(["report", "--certificate", certificate_file, "--format", "text"]) == OK
        out = capsys.readouterr().out
        assert "sofic certificate: PASS" in out
        assert "window: 24 elements, eps = 1/2" in out
        assert "multiplicativity: 576 pairs, worst defect 0" in out
        assert "freeness: 23 elements, least margin 1" in out
        assert "split      defect        0" in out
        assert "conclusion defect 0 (eps 1/2)" in out

    def test_json_report_round_trips(self, certificate_file, capsys):
        # byte for byte: the same keys in the same order, in the layout verify prints
        assert main(["report", "--certificate", certificate_file, "--format", "json"]) == OK
        assert capsys.readouterr().out == pathlib.Path(certificate_file).read_text()

    def test_identity_only_window_renders(self, tmp_path, capsys):
        config = write(tmp_path / "config.json", small_config(F=[{"left": [], "right": 0}]))
        out = str(tmp_path / "artifact.json")
        assert main(["build", "--config", config, "--out", out]) == OK
        capsys.readouterr()
        assert main(["verify", "--approx", out]) == OK
        cert = capsys.readouterr().out
        path = tmp_path / "certificate.json"
        path.write_text(cert)
        assert main(["report", "--certificate", str(path), "--format", "text"]) == OK
        assert "freeness: vacuous" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, key, value",
        [
            (("mult_defects", 0, "defect"), "den", 0),
            (("details", "freeness", 0, "margin"), "den", 0),
            (("eps",), "num", True),
        ],
        ids=["mult_defect", "freeness_margin", "eps_bool_num"],
    )
    def test_zero_denominator_in_text_report_is_usage_error(self, tmp_path, capsys, field, key, value):
        cert = json.loads((pathlib.Path(__file__).parent / "data" / "small_certificate.json").read_text())
        node = cert
        for step in field:
            node = node[step]
        node[key] = value
        path = write(tmp_path / "certificate.json", cert)
        assert main(["report", "--certificate", path, "--format", "text"]) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: not a rational")
        assert "Traceback" not in err

    def test_rejects_non_certificate(self, tmp_path, capsys):
        path = write(tmp_path / "bogus.json", {"kind": "other"})
        assert main(["report", "--certificate", path]) == USAGE

    @pytest.mark.parametrize("data", [[1, 2], "sofic-certificate", None], ids=["list", "string", "null"])
    def test_non_object_certificate_is_usage_error(self, tmp_path, capsys, data):
        path = write(tmp_path / "certificate.json", data)
        assert main(["report", "--certificate", path]) == USAGE
        assert capsys.readouterr().err == "error: not a sofic certificate\n"

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda cert: cert.update({"pass": "no"}), "pass must be a boolean, got 'no'"),
            # format 1 keeps "identity_pass": true, which the reader compares as a copy, not a verdict
            (
                lambda cert: cert.update({"identity_pass": 1}),
                "certificate identity_pass differs from the encoding of its measured values",
            ),
            (
                lambda cert: cert.update({"identity_pass": False}),
                "certificate identity_pass differs from the encoding of its measured values",
            ),
            (lambda cert: cert.update({"eps": {"num": -1, "den": 2}}), "certificate eps must be positive, got -1/2"),
            (lambda cert: cert.update({"eps": {"num": 0, "den": 1}}), "certificate eps must be positive, got 0"),
            (lambda cert: cert["mult_defects"].pop(), "certificate lists 575 pairs for a window of 24"),
            (
                lambda cert: cert["mult_defects"].insert(1, cert["mult_defects"].pop(0)),
                "certificate mult_defects differs from the encoding of its measured values",
            ),
            (
                lambda cert: cert.update({"free_margins": []}),
                "certificate free_margins differs from the encoding of its measured values",
            ),
            (
                lambda cert: cert["free_margins"].reverse(),
                "certificate free_margins differs from the encoding of its measured values",
            ),
            (
                # the margins are read from details.freeness, so the first copy that differs is free_margins
                lambda cert: [entry.update({"margin": {"num": 0, "den": 1}}) for entry in cert["details"]["freeness"]],
                "certificate free_margins differs from the encoding of its measured values",
            ),
            (
                lambda cert: cert["details"]["freeness"][0].update({"element": cert["window"][0]}),
                "certificate details differs from the encoding of its measured values",
            ),
        ],
        ids=[
            "pass_string", "identity_pass_int", "identity_pass_false", "eps_negative", "eps_zero", "pair_missing",
            "pairs_out_of_order", "margins_empty", "margins_out_of_order", "details_margins_zero",
            "details_element_other",
        ],
    )
    @pytest.mark.parametrize("format_", ["text", "json"])
    def test_malformed_verdict_eps_or_pairs_is_usage_error(self, tmp_path, capsys, edit, error, format_):
        cert = json.loads(SMALL_CERTIFICATE.read_text())
        edit(cert)
        path = write(tmp_path / "certificate.json", cert)
        assert main(["report", "--certificate", path, "--format", format_]) == USAGE
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("defect", {"num": 1, "den": 1}),
            ("margin", {"num": 0, "den": 1}),
            ("pass", False),
            # eps = 1/2: a value on the bound fails the strict checks
            ("defect", {"num": 1, "den": 2}),
            ("margin", {"num": 1, "den": 2}),
        ],
        ids=["defects_one", "margins_zero", "pass_false", "defects_at_eps", "margins_at_bound"],
    )
    def test_stored_pass_disagreeing_with_the_checks_is_certificate_failure(self, tmp_path, capsys, field, value):
        cert = json.loads(SMALL_CERTIFICATE.read_text())
        if field in cert:
            cert[field] = value
        elif field == "defect":
            for entry in cert["mult_defects"]:
                entry[field] = value
        else:  # details.freeness repeats each margin, beside the copies that the margin determines
            for entry in cert["free_margins"] + cert["details"]["freeness"]:
                entry[field] = value
            for entry in cert["details"]["freeness"]:
                if entry["base_margin"] is None:
                    fixed = {"num": value["den"] - value["num"], "den": value["den"]}  # 1 - margin
                    entry.update(fixed_fraction=fixed, within_bound=False)
                else:
                    entry["base_dominated"] = False
        path = write(tmp_path / "certificate.json", cert)
        assert main(["report", "--certificate", path]) == CERTIFICATE
        stored = json.dumps(cert["pass"])
        assert capsys.readouterr().err == f'certificate failure: stored "pass": {stored} disagrees with the listed checks\n'
        # the other verdict agrees, and the certificate renders
        cert["pass"] = not cert["pass"]
        assert main(["report", "--certificate", write(tmp_path / "certificate.json", cert)]) == OK
        assert capsys.readouterr().out.startswith(f"sofic certificate: {'PASS' if cert['pass'] else 'FAIL'}\n")

    def test_group_other_than_a_wreath_product_is_usage_error(self, tmp_path, capsys):
        cert = json.loads(SMALL_CERTIFICATE.read_text())
        cert["group"] = {"kind": "cyclic", "n": 2}
        assert main(["report", "--certificate", write(tmp_path / "certificate.json", cert)]) == USAGE
        assert capsys.readouterr().err == "error: certificate group must be a wreath product\n"

    @pytest.mark.parametrize("num", [-1, 2])
    @pytest.mark.parametrize(
        "path, key",
        [
            (("mult_defects", 0, "defect"), "mult_defects.0.defect"),
            (("details", "multiplicativity", "almost_hom", "lamp_mult", "defect"), "lamp_mult.defect"),
            (("details", "multiplicativity", "almost_hom", "conclusion", "defect"), "conclusion.defect"),
            (("details", "freeness", 0, "margin"), "details.freeness.0.margin"),
            (("details", "freeness", 7, "base_margin"), "details.freeness.7.base_margin"),
        ],
        ids=["pair_defect", "bullet_defect", "conclusion_defect", "margin", "base_margin"],
    )
    def test_distance_outside_zero_one_is_usage_error(self, tmp_path, capsys, path, key, num):
        # a distance is a fraction of points; -1 on a pair or a bullet would not change a verdict
        cert = json.loads(SMALL_CERTIFICATE.read_text())
        node = cert
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = {"num": num, "den": 1}
        written = write(tmp_path / "certificate.json", cert)
        assert main(["report", "--certificate", written]) == USAGE
        assert capsys.readouterr().err == f"error: certificate {key} must be in [0, 1], got {num}\n"

    def test_golden_certificate_and_report(self, built_artifact, capsys):
        # frozen outputs for the exact 24-element fixture
        data = pathlib.Path(__file__).parent / "data"
        assert main(["verify", "--approx", built_artifact]) == OK
        assert capsys.readouterr().out == (data / "small_certificate.json").read_text()
        certificate = str(data / "small_certificate.json")
        assert main(["report", "--certificate", certificate, "--format", "text"]) == OK
        assert capsys.readouterr().out == (data / "small_report.txt").read_text()

    def test_each_freeness_line_names_its_element(self, capsys):
        assert main(["report", "--certificate", str(SMALL_CERTIFICATE)]) == OK
        lines = capsys.readouterr().out.splitlines()
        certificate, wreath = verify.certificate_from_json(json.loads(SMALL_CERTIFICATE.read_text()))
        shown = []
        for line in lines[lines.index("freeness report:") + 1 :]:
            head = next(head for head in ("  base moves ", "  lamps only ") if line.startswith(head))
            data, end = json.JSONDecoder().raw_decode(line, len(head))
            assert line[end] == ":"
            shown.append(wreath.decode(data))
        assert shown == [e.element for e in certificate.details.freeness]
        assert len(set(shown)) == len(shown) == 23

    def test_each_bullet_and_the_worst_pair_name_their_witness(self, capsys):
        assert main(["report", "--certificate", str(SMALL_CERTIFICATE)]) == OK
        certificate, wreath = verify.certificate_from_json(json.loads(SMALL_CERTIFICATE.read_text()))
        assert shown_witnesses(capsys.readouterr().out, wreath) == report_witnesses(certificate)


class TestDeterminism:
    def test_build_twice_is_identical(self, tmp_path):
        config = write(tmp_path / "config.json", small_config())
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["build", "--config", config, "--out", out1]) == OK
        assert main(["build", "--config", config, "--out", out2]) == OK
        assert pathlib.Path(out1).read_text() == pathlib.Path(out2).read_text()

    def test_verify_output_stable(self, built_artifact, capsys):
        assert main(["verify", "--approx", built_artifact]) == OK
        first = capsys.readouterr().out
        assert main(["verify", "--approx", built_artifact]) == OK
        assert capsys.readouterr().out == first


class TestUsageMessages:
    """Malformed configs, artifacts and certificates exit 1 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"approximations": {"lamp": {"kind": "regular"}, "base": {"kind": "perturb", "rate": "0"}}}, "base"),
            (
                {"approximations": {"lamp": {"kind": "regular"}, "base": {"kind": "perturb", "base": {"kind": "regular"}}}},
                "rate",
            ),
            (
                {
                    "groups": {"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "integers"}},
                    "approximations": {"lamp": {"kind": "regular"}, "base": {"kind": "cyclic-quotient"}},
                    "F": [{"left": [], "right": 1}],
                },
                "size",
            ),
            (
                {
                    "groups": {"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "free", "rank": 1}},
                    "approximations": {
                        "lamp": {"kind": "regular"},
                        "base": {"kind": "free-quotient", "degree": 2, "images": [[1, 0]]},
                    },
                    "F": [{"left": [], "right": [1]}],
                },
                "radius",
            ),
            ({"groups": {"base": {"kind": "cyclic", "n": 3}}}, "lamp"),
            ({"F": [{"left": []}]}, "right"),
        ],
        ids=["perturb_base", "perturb_rate", "cyclic_quotient_size", "free_quotient_radius", "groups_lamp", "F_right"],
    )
    def test_missing_config_key_names_itself(self, tmp_path, capsys, overrides, key):
        path = write(tmp_path / "config.json", small_config(**overrides))
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: missing key {key!r}\n"

    def test_missing_artifact_key_names_itself(self, built_artifact, tmp_path, capsys):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        del artifact["lamp_approx"]
        assert main(["verify", "--approx", write(tmp_path / "artifact.json", artifact)]) == USAGE
        assert capsys.readouterr().err == "error: missing key 'lamp_approx'\n"

    @pytest.mark.parametrize("key", ["eps", "details"])
    def test_missing_certificate_key_names_itself(self, tmp_path, capsys, key):
        cert = json.loads((pathlib.Path(__file__).parent / "data" / "small_certificate.json").read_text())
        del cert[key]
        assert main(["report", "--certificate", write(tmp_path / "certificate.json", cert)]) == USAGE
        assert capsys.readouterr().err == f"error: missing key {key!r}\n"

    @pytest.mark.parametrize("order", [2**63, 2**64], ids=["2**63", "2**64"])
    @pytest.mark.parametrize("via", ["regular", "F_all"])
    def test_group_too_large_to_enumerate(self, tmp_path, capsys, order, via):
        # orders from 2**63 up overflow an index before anything is allocated
        big = {"kind": "cyclic", "n": order}
        if via == "regular":
            config = small_config(groups={"lamp": big, "base": {"kind": "cyclic", "n": 3}})
        else:
            stored = {"group": big, "carrier_size": 1, "window": [0], "rule": [[0, {"degree": 1, "image": [0]}]]}
            base = {"kind": "file", "path": write(tmp_path / "base.json", stored)}
            config = small_config(
                groups={"lamp": {"kind": "cyclic", "n": 2}, "base": big},
                approximations={"lamp": {"kind": "regular"}, "base": base},
            )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == "error: group too large to enumerate\n"

    @pytest.mark.parametrize("lamp", [[1], "cyclic", {"n": 2}], ids=["list", "string", "no_kind"])
    def test_group_descriptor_other_than_an_object_with_a_kind(self, tmp_path, capsys, lamp):
        config = small_config(groups={"lamp": lamp, "base": {"kind": "cyclic", "n": 3}})
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: bad group descriptor: {lamp!r}\n"

    def test_boolean_eps_is_not_read_as_one(self, tmp_path, capsys):
        path = write(tmp_path / "config.json", small_config(eps=True))
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == "error: not a rational: True\n"

    @pytest.mark.parametrize("images", [{"seed": 1}, [[1, 0]]], ids=["drawn", "listed"])
    @pytest.mark.parametrize("degree", [0, -2])
    def test_free_quotient_degree_must_be_positive(self, tmp_path, capsys, images, degree):
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "free", "rank": 1}},
            approximations={
                "lamp": {"kind": "regular"},
                "base": {"kind": "free-quotient", "degree": degree, "images": images, "radius": 1},
            },
            F=[{"left": [], "right": [1]}],
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: degree must be a positive integer, got {degree}\n"

    @pytest.mark.parametrize(
        "degree, images", [(7, [list(range(8))]), (2, [[1, 0], list(range(8))])], ids=["only", "second"]
    )
    def test_free_quotient_degree_must_match_the_listed_images(self, tmp_path, capsys, degree, images):
        config = small_config(
            groups={"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "free", "rank": len(images)}},
            approximations={
                "lamp": {"kind": "regular"},
                "base": {"kind": "free-quotient", "degree": degree, "images": images, "radius": 1},
            },
            F=[{"left": [], "right": [1]}],
        )
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: free-quotient degree {degree} does not match an image on 8 points\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("kind", [[1], {"kind": "cyclic"}], ids=["list", "object"])
    def test_unhashable_group_kind(self, tmp_path, capsys, kind):
        config = small_config(groups={"lamp": {"kind": kind, "n": 2}, "base": {"kind": "cyclic", "n": 3}})
        path = write(tmp_path / "config.json", config)
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: unknown group kind {kind!r}\n"


SMALL_CERTIFICATE = pathlib.Path(__file__).parent / "data" / "small_certificate.json"


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
class TestStoredIntegerOne:
    """``true`` and ``1.0`` equal 1 in Python but not in JSON: each is rejected
    where a document stores the integer 1."""

    def test_config_format(self, tmp_path, capsys, value):
        path = write(tmp_path / "config.json", small_config(format=value))
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == 'error: config must be an object with "format": 1\n'

    def test_artifact_format(self, built_artifact, tmp_path, capsys, value):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        artifact["format"] = value
        assert main(["verify", "--approx", write(tmp_path / "artifact.json", artifact)]) == USAGE
        assert capsys.readouterr().err == "error: not a wreath-approx artifact\n"

    @pytest.mark.parametrize("format_", ["text", "json"])
    def test_certificate_format(self, tmp_path, capsys, value, format_):
        cert = json.loads(SMALL_CERTIFICATE.read_text())
        cert["format"] = value
        path = write(tmp_path / "certificate.json", cert)
        assert main(["report", "--certificate", path, "--format", format_]) == USAGE
        assert capsys.readouterr().err == "error: not a sofic certificate\n"

    @pytest.mark.parametrize(
        "field",
        [("windows", "lamp_values", 1), ("block", "good", 1), ("budget", "eps", "num")],
        ids=["lamp_value", "good_block", "eps_num"],
    )
    def test_derived_integer(self, built_artifact, tmp_path, capsys, value, field):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        tampered = edited(artifact, ("derived", *field), value)
        assert main(["verify", "--approx", write(tmp_path / "artifact.json", tampered)]) == CERTIFICATE
        assert "artifact derived data does not match a fresh derivation" in capsys.readouterr().err


def repeat_element(stored: dict, where: str) -> dict:
    """List element 0 of a stored Z/2 approximation twice: in ``rule`` the
    first entry is wrong and the last, the identity, would win."""
    if where == "rule":
        stored["rule"].insert(0, [0, {"degree": 2, "image": [1, 0]}])
    else:
        stored["window"].append(0)
    return stored


@pytest.mark.parametrize("where", ["rule", "window"])
class TestRepeatedElements:
    def test_file_approximation(self, tmp_path, capsys, where):
        stored = repeat_element(sw.regular_rep(sw.cyclic(2)).to_json(), where)
        lamp = {"kind": "file", "path": write(tmp_path / "lamp.json", stored)}
        path = write(tmp_path / "config.json", small_config(approximations={"lamp": lamp, "base": {"kind": "regular"}}))
        assert main(["build", "--config", path, "--out", str(tmp_path / "x.json")]) == USAGE
        assert capsys.readouterr().err == f"error: element 0 is listed twice in an approximation's {where}\n"

    def test_artifact(self, built_artifact, tmp_path, capsys, where):
        artifact = json.loads(pathlib.Path(built_artifact).read_text())
        repeat_element(artifact["lamp_approx"], where)
        assert main(["verify", "--approx", write(tmp_path / "artifact.json", artifact)]) == USAGE
        assert capsys.readouterr().err == f"error: element 0 is listed twice in an approximation's {where}\n"


def fields(node, path=()):
    """The path of every value below the root of a JSON tree, containers included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*path, key)
        yield from fields(child, (*path, key))


DELETE = object()


def edited(tree, path, value):
    """A deep copy of tree with the field at path replaced by value, or deleted
    when value is ``DELETE``."""
    tree = json.loads(json.dumps(tree))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


class TestTamperCorpus:
    def test_every_single_field_edit_is_rejected_or_verifies_the_same(self, tmp_path, capsys):
        """Replace each field of a valid Z/2 wr Z/3 artifact, scalar or not,
        with null, true, -1, 2 or "x", or delete it, one edit at a time: verify
        exits 1 or 2, or prints the byte-identical certificate."""
        config = write(tmp_path / "config.json", small_config(F=[{"left": [[0, 1]], "right": 1}]))
        out = tmp_path / "artifact.json"
        assert main(["build", "--config", config, "--out", str(out)]) == OK
        capsys.readouterr()
        assert main(["verify", "--approx", str(out)]) == OK
        certificate = capsys.readouterr().out
        artifact = json.loads(out.read_text())
        paths = list(fields(artifact))
        assert len(paths) == 149
        failures = []
        for path in paths:
            for value in (None, True, -1, 2, "x", DELETE):
                tampered = write(tmp_path / "tampered.json", edited(artifact, path, value))
                try:
                    code = main(["verify", "--approx", tampered])
                except Exception as exc:  # noqa: BLE001 - any escape is a failure
                    code = f"{type(exc).__name__}: {exc}"
                captured = capsys.readouterr()
                if code not in (USAGE, CERTIFICATE) and (code, captured.out) != (OK, certificate):
                    failures.append((path, "delete" if value is DELETE else value, code))
        assert failures == []


def is_measured(path) -> bool:
    """A value ``verify_construction`` measures and a certificate stores once,
    or a part of one: an edit to it alone may render a different certificate."""
    if path[0] == "group" or (path[0] == "mult_defects" and path[2:3] == ("defect",)):
        return True
    if path[:3] == ("details", "multiplicativity", "almost_hom"):
        return path[4:5] in (("defect",), ("witness",))
    return path[:2] == ("details", "freeness") and path[3:4] == ("base_margin",)


class TestCertificateTamperCorpus:
    def test_every_single_field_edit_is_rejected_or_renders_the_same(self, tmp_path, capsys):
        """Replace each field of a valid Z/2 wr Z/3 certificate, scalar or not,
        with null, true, -1, 2, "x" or 1/3, or delete it, one edit at a time:
        report exits 1 or 2, or prints the byte-identical report in either
        format, unless the field is a measured value that is stored once."""
        config = write(tmp_path / "config.json", small_config(F=[{"left": [[0, 1]], "right": 1}]))
        out = str(tmp_path / "artifact.json")
        assert main(["build", "--config", config, "--out", out]) == OK
        capsys.readouterr()
        assert main(["verify", "--approx", out]) == OK
        certificate = json.loads(capsys.readouterr().out)
        original = write(tmp_path / "certificate.json", certificate)
        expected = {}
        for format_ in ("text", "json"):
            assert main(["report", "--certificate", original, "--format", format_]) == OK
            expected[format_] = capsys.readouterr().out
        paths = list(fields(certificate))
        assert len(paths) == 162
        failures = []
        for path in paths:
            for value in (None, True, -1, 2, "x", {"num": 1, "den": 3}, DELETE):
                tampered = write(tmp_path / "tampered.json", edited(certificate, path, value))
                for format_ in ("text", "json"):
                    try:
                        code = main(["report", "--certificate", tampered, "--format", format_])
                    except Exception as exc:  # noqa: BLE001 - any escape is a failure
                        code = f"{type(exc).__name__}: {exc}"
                    captured = capsys.readouterr()
                    if code in (USAGE, CERTIFICATE) or (code, captured.out) == (OK, expected[format_]):
                        continue
                    if code != OK or not is_measured(path):
                        failures.append((path, "delete" if value is DELETE else value, format_, code))
        assert failures == []
