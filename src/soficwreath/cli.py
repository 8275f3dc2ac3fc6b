"""Command-line surface: build artifacts, verify them, render reports.

``report`` renders the ``Certificate`` that ``verify.certificate_from_json``
reads; ``build`` never imports ``verify``.  Exit codes: 0 success, 1 usage or
malformed input, 2 certificate failure, 3 oracle unavailable (carrier too
large to expand).
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .bigperm import EXPANSION_CAP
from .construct import WreathApprox, build, wreath_approx_from_json
from .groups import Group, FreeGroup, IntegerGroup, WreathProduct, group_from_descriptor
from .jsonutil import all_ints, checked, dump_indented, is_int, is_positive_int, parse_fraction, same_json
from .perm import Permutation, draw_permutation
from .sofic import (
    CertificateError,
    SoficApprox,
    cyclic_quotient,
    perturb,
    quotient_by_images,
    regular_rep,
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
        degree = checked(desc["degree"], is_positive_int, "degree", "a positive integer")
        images = desc["images"]
        if isinstance(images, dict):
            rng = random.Random(checked(images.get("seed", seed), is_int, "images seed", "an integer"))
            images = [draw_permutation(degree, rng) for _ in range(group.rank)]
        elif isinstance(images, list) and all(isinstance(img, list) and all_ints(img) for img in images):
            if wrong := [len(img) for img in images if len(img) != degree]:
                raise ValueError(f"free-quotient degree {degree} does not match an image on {wrong[0]} points")
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
    partial = f"{args.out}.{os.getpid()}.partial"  # moved onto --out once whole: no failure leaves part of one
    fh = open(partial, "x")
    try:
        with fh:
            dump_indented(artifact, fh.write)
        os.replace(partial, args.out)
    except BaseException:
        os.remove(partial)
        raise

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
    from .verify import oracle_check, verify_construction

    approx, cap = _load_artifact(args.approx)
    certificate = verify_construction(approx)
    _print_json(certificate.to_json(approx.wreath))
    if args.oracle:
        if approx.carrier_size() > cap:
            print(f"oracle unavailable: carrier {approx.carrier_size()} exceeds cap {cap}", file=sys.stderr)
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


def _render_text(certificate, wreath: WreathProduct) -> str:
    from .verify import _witness_groups

    def at(groups, pair):  # as the failure lines print a pair
        return "at pair ({}, {})".format(*(g.show(x) for g, x in zip(groups, pair)))

    details = certificate.details
    almost, bounds = details.almost_hom, details.bounds
    shown = {name: at(groups, getattr(almost, name).witness) for name, groups in _witness_groups(wreath)}
    defect, pair = certificate.worst_defect
    lines = [
        f"sofic certificate: {'PASS' if certificate.passed else 'FAIL'}",
        f"window: {len(certificate.window)} elements, eps = {certificate.eps}",
        "identity value is identity: yes",  # build rejects any other rule(1)
        f"multiplicativity: {len(certificate.mult_defects)} pairs, worst defect {defect} {at((wreath, wreath), pair)}",
        f"freeness: {len(details.freeness)} elements, least margin {certificate.min_margin[0]}"
        if details.freeness
        else "freeness: vacuous (no non-identity targets)",
        "multiplicativity report (hypothesis threshold eps/6):",
    ]
    for name, bound in zip(("lamp_mult", "base_mult", "split", "intertwine"), bounds.values()):
        bullet = getattr(almost, name)
        lines.append(f"  {name:10s} defect {bullet.defect!s:>8}  bound {bound!s:>8}  threshold {bullet.threshold}  {shown[name]}")
    lines.append(f"  conclusion defect {almost.conclusion.defect} (eps {certificate.eps}) {shown['conclusion']}")
    lines.append("freeness report:")
    lines += [
        f"  base moves {wreath.show(e.element)}: margin {e.margin} >= base margin {e.base_margin}"
        if e.base_margin is not None
        else f"  lamps only {wreath.show(e.element)}: margin {e.margin}, "
        f"fixed fraction {e.fixed_fraction} <= bound {e.bound}"
        for e in details.freeness
    ] or ["  (empty)"]
    return "\n".join(lines)


def _cmd_report(args) -> int:
    """Render a stored certificate once ``certificate_from_json`` has checked
    every field of it; ``--format json`` prints it through the writer
    ``verify`` uses, so a certificate ``verify`` wrote comes back byte for byte."""
    from .verify import certificate_from_json

    certificate, wreath = certificate_from_json(_read_json(args.certificate))
    if args.format == "json":
        _print_json(certificate.to_json(wreath))
    else:
        print(_render_text(certificate, wreath))
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
