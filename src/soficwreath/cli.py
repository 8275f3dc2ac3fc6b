"""Command-line surface: build artifacts, verify them, render reports.

Exit codes: 0 success, 1 usage or malformed input, 2 certificate failure,
3 oracle unavailable (carrier too large to expand).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .bigperm import EXPANSION_CAP
from .construct import WreathApprox, build, wreath_approx_from_json
from .groups import Group, FreeGroup, IntegerGroup, WreathProduct, group_from_descriptor
from .jsonutil import all_ints, checked, dump_indented, frac_from_json, is_int, is_positive_int, parse_fraction, same_json
from .perm import Permutation, draw_permutation
from .sofic import (
    CertificateError,
    SoficApprox,
    cyclic_quotient,
    perturb,
    quotient_by_images,
    regular_rep,
    sofic_verdict,
)

OK, USAGE, CERTIFICATE, ORACLE = 0, 1, 2, 3


def _finite(enumerate_, message: str):
    """``enumerate_()``, which lists a group's elements: a usage error if it is
    infinite, or has more elements than an index can count (``OverflowError``
    from ``sorted`` or ``tuple``, raised before anything is allocated)."""
    try:
        return enumerate_()
    except NotImplementedError:
        raise ValueError(message) from None
    except OverflowError:
        raise ValueError("group too large to enumerate") from None


def _radius(desc: dict) -> int:
    radius = checked(desc["radius"], is_int, "radius", "an integer")
    return checked(radius, (0).__le__, "radius", "non-negative")


def _approx_from_descriptor(desc: dict, group: Group, seed: int) -> SoficApprox:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError(f"bad approximation descriptor: {desc!r}")
    kind = desc["kind"]
    if kind == "regular":
        return _finite(lambda: regular_rep(group), '"regular" approximation needs a finite group')
    if kind == "cyclic-quotient":
        if not isinstance(group, IntegerGroup):
            raise ValueError("cyclic-quotient needs the integers as its group")
        size = checked(desc["size"], is_int, "size", "an integer")
        if desc.get("radius") is None:
            return cyclic_quotient(size)
        radius = _radius(desc)
        return cyclic_quotient(size, range(-radius, radius + 1))
    if kind == "free-quotient":
        if not isinstance(group, FreeGroup):
            raise ValueError("free-quotient needs a free group")
        degree = checked(desc["degree"], is_int, "degree", "an integer")
        images = desc["images"]
        if isinstance(images, dict):
            rng = random.Random(checked(images.get("seed", seed), is_int, "images seed", "an integer"))
            images = [draw_permutation(degree, rng) for _ in range(group.rank)]
        elif isinstance(images, list) and all(isinstance(img, list) and all_ints(img) for img in images):
            images = [Permutation(tuple(img)) for img in images]
        else:
            raise ValueError("free-quotient images must be lists of integers")
        return quotient_by_images(group, images, group.ball(_radius(desc)))
    if kind == "perturb":
        inner = _approx_from_descriptor(desc["base"], group, seed)
        rate = parse_fraction(desc["rate"])
        return perturb(inner, rate, checked(desc.get("seed", seed), is_int, "perturb seed", "an integer"))
    if kind == "file":
        path = desc["path"]
        # open() would take an int as a file descriptor, and True as stdout
        if not isinstance(path, str):
            raise ValueError(f"file approximation path must be a string, got {path!r}")
        loaded = SoficApprox.from_json(_read_json(path))
        if loaded.group != group:
            raise ValueError(f"approximation file {path} is for a different group")
        return loaded
    raise ValueError(f"unknown approximation kind {kind!r}")


def _read_json(path: str):
    """Every JSON input of the CLI: config, artifact, certificate, approximation."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_config(path: str) -> dict:
    config = _read_json(path)
    if not isinstance(config, dict) or not same_json(config.get("format"), 1):
        raise ValueError('config must be an object with "format": 1')
    for key in ("groups", "approximations", "F", "eps"):
        if key not in config:
            raise ValueError(f"config is missing the {key!r} key")
    return config


def _cmd_build(args) -> int:
    config = _load_config(args.config)
    seed = checked(config.get("seed", 0), is_int, "seed", "an integer")
    lamp_group = group_from_descriptor(config["groups"]["lamp"])
    base_group = group_from_descriptor(config["groups"]["base"])
    sigma_A = _approx_from_descriptor(config["approximations"]["lamp"], lamp_group, seed)
    sigma_B = _approx_from_descriptor(config["approximations"]["base"], base_group, seed)

    eps = parse_fraction(config["eps"])
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    cap = checked(config.get("expansion_cap", EXPANSION_CAP), is_positive_int, "expansion_cap", "a positive integer")

    wreath = WreathProduct(lamp_group, base_group)
    targets_cfg = config["F"]
    if targets_cfg == "all":
        targets = _finite(lambda: list(wreath.elements()), '"F": "all" needs finite lamp and base groups')
    else:
        targets = [wreath.decode(u) for u in targets_cfg]

    approx = build(sigma_A, sigma_B, targets, eps)

    artifact = approx.to_json()
    artifact["expansion_cap"] = cap
    with open(args.out, "w") as fh:
        dump_indented(artifact, fh.write)

    w = approx.windows
    print(f"targets: {len(w.targets)}  closure: {len(w.closure)}")
    print(
        f"windows: lamp {len(w.lamp_window)}, mover {len(w.mover_window)}, "
        f"positions {len(w.positions)}, lamp values {len(w.lamp_values)}, base {len(w.base_window)}"
    )
    print(f"good blocks: {len(approx.block.good)}/{approx.b_size}")
    b = approx.budget
    print(f"budget: eps = {b.eps}, block tolerance = {b.block_tolerance}, input tolerance = {b.input_tolerance}")
    print(f"wrote {args.out}")
    return OK


def _load_artifact(path: str) -> tuple[WreathApprox, int]:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError("artifact must be a JSON object")
    # an artifact may lower its oracle limit but never raise it
    cap = checked(data.get("expansion_cap", EXPANSION_CAP), is_positive_int, "expansion_cap", "a positive integer")
    cap = min(cap, EXPANSION_CAP)
    return wreath_approx_from_json(data), cap


def _print_json(obj) -> None:
    """Print ``obj`` through ``dump_indented`` in one write: stdout may be
    unbuffered, and then every piece is a system call."""
    pieces = []
    dump_indented(obj, pieces.append)
    pieces.append("\n")
    sys.stdout.write("".join(pieces))


def _cmd_verify(args) -> int:
    # only verify imports verify, so build and report never compile it
    from .verify import oracle_check, verify_construction

    approx, cap = _load_artifact(args.approx)
    certificate = verify_construction(approx)
    _print_json(certificate.to_json(approx.wreath))
    if args.oracle:
        if approx.carrier_size() > cap:
            print(
                f"oracle unavailable: carrier {approx.carrier_size()} exceeds cap {cap}",
                file=sys.stderr,
            )
            return ORACLE
        mismatches = oracle_check(approx, certificate, cap)
        if mismatches:
            for line in mismatches:
                print(f"oracle mismatch: {line}", file=sys.stderr)
            return CERTIFICATE
        print(f"oracle: all distances confirmed on {approx.carrier_size()} points", file=sys.stderr)
    if not certificate.passed:
        for line in certificate.violations(approx.wreath):
            print(f"certificate failure: {line}", file=sys.stderr)
        return CERTIFICATE
    return OK


def _frac_str(data) -> str:
    return str(frac_from_json(data))


def _render_text(cert: dict, defects: list[Fraction], margins: list[Fraction]) -> str:
    lines = []
    lines.append(f"sofic certificate: {'PASS' if cert['pass'] else 'FAIL'}")
    lines.append(f"window: {len(cert['window'])} elements, eps = {_frac_str(cert['eps'])}")
    lines.append(f"identity value is identity: {'yes' if cert['identity_pass'] else 'NO'}")

    if defects:
        lines.append(f"multiplicativity: {len(defects)} pairs, worst defect {max(defects)}")
    if margins:
        lines.append(f"freeness: {len(margins)} elements, least margin {min(margins)}")
    else:
        lines.append("freeness: vacuous (no non-identity targets)")

    details = cert["details"]
    mult = details["multiplicativity"]
    hom = mult["almost_hom"]
    lines.append("multiplicativity report (hypothesis threshold eps/6):")
    for name, bound_key in (
        ("lamp_mult", "lamp"),
        ("base_mult", "base"),
        ("split", "split"),
        ("intertwine", "intertwine"),
    ):
        bullet = hom[name]
        lines.append(
            f"  {name:10s} defect {_frac_str(bullet['defect']):>8s}"
            f"  bound {_frac_str(mult['bounds'][bound_key]):>8s}"
            f"  threshold {_frac_str(bullet['threshold'])}"
        )
    lines.append(
        f"  conclusion defect {_frac_str(hom['conclusion']['defect'])} (eps {_frac_str(cert['eps'])})"
    )
    lines.append("freeness report:")
    if not details["freeness"]:
        lines.append("  (empty)")
    for entry in details["freeness"]:
        if entry["base_margin"] is not None:
            lines.append(
                f"  base moves: margin {_frac_str(entry['margin'])}"
                f" >= base margin {_frac_str(entry['base_margin'])}"
            )
        else:
            lines.append(
                f"  lamps only: margin {_frac_str(entry['margin'])},"
                f" fixed fraction {_frac_str(entry['fixed_fraction'])}"
                f" <= bound {_frac_str(entry['bound'])}"
            )
    return "\n".join(lines)


def _load_certificate(path: str) -> tuple[dict, list[Fraction], list[Fraction]]:
    """A stored certificate with its pair defects and freeness margins,
    checked as far as ``report`` reads it: its verdicts are booleans, it lists
    a defect for every pair of its window in row-major order and a margin for
    every non-identity element in window order, its ``details.freeness``
    repeats those margins, and ``pass`` is the verdict of ``sofic_verdict`` on
    what it lists."""
    cert = _read_json(path)
    if not isinstance(cert, dict) or cert.get("kind") != "sofic-certificate" or not same_json(cert.get("format"), 1):
        raise ValueError("not a sofic certificate")
    eps = frac_from_json(cert["eps"])
    if eps <= 0:
        raise ValueError(f"certificate eps must be positive, got {eps}")
    for key in ("pass", "identity_pass"):
        checked(cert[key], lambda x: type(x) is bool, key, "a boolean")
    window, listed = cert["window"], cert["free_margins"]
    if len(cert["mult_defects"]) != len(window) ** 2:
        raise ValueError(f"certificate lists {len(cert['mult_defects'])} pairs for a window of {len(window)}")
    if not same_json([entry["pair"] for entry in cert["mult_defects"]], [[u, v] for u in window for v in window]):
        raise ValueError("certificate pairs are not the window's pairs in row-major order")
    group = group_from_descriptor(cert["group"])
    identity = group.encode(group.identity())
    if not same_json([entry["element"] for entry in listed], [u for u in window if not same_json(u, identity)]):
        raise ValueError("certificate free_margins are not the window's non-identity elements in order")
    defects = [frac_from_json(entry["defect"]) for entry in cert["mult_defects"]]
    margins = [frac_from_json(entry["margin"]) for entry in listed]
    details = cert["details"]["freeness"]
    if len(details) != len(listed) or any(
        not same_json(entry["element"], margin_entry["element"]) or frac_from_json(entry["margin"]) != margin
        for entry, margin_entry, margin in zip(details, listed, margins)
    ):
        raise ValueError("certificate details.freeness differs from its free_margins")
    if cert["pass"] != sofic_verdict(cert["identity_pass"], defects, margins, eps):
        raise CertificateError(f'stored "pass": {json.dumps(cert["pass"])} disagrees with the listed checks')
    return cert, defects, margins


def _cmd_report(args) -> int:
    """Render a stored certificate; ``--format json`` re-emits it in the
    layout ``verify`` prints, so a certificate ``verify`` wrote comes back
    byte for byte."""
    cert, defects, margins = _load_certificate(args.certificate)
    if args.format == "json":
        _print_json(cert)
    else:
        print(_render_text(cert, defects, margins))
    return OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="soficwreath",
        description="Build and certify sofic approximations of wreath products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an approximation from a config file")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="verify an artifact and print its certificate")
    p_verify.add_argument("--approx", required=True)
    p_verify.add_argument("--oracle", action="store_true", help="cross-check against explicit expansion")

    p_report = sub.add_parser("report", help="render a certificate")
    p_report.add_argument("--certificate", required=True)
    p_report.add_argument("--format", choices=("text", "json"), default="text")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK

    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return CERTIFICATE
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
