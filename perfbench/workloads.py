"""Seeded config generators for the benchmark workloads.

Each generator turns a seed into one ``soficwreath build`` config; the
program only ever sees that config.  Run as a script this module writes the
config for one workload and seed, and ``run.py`` times that script as the
benchmark's set-up (one fresh interpreter importing ``soficwreath``).

A seed changes which inputs are drawn, never how much work they make.  The
lamplighter and wide-base generators draw until the windows that
``derive_windows`` derives from the targets match a pinned profile (window
sizes, radii, support sizes); finite-oracle relabels the Cayley tables of a
fixed group.  Two seeds therefore cost the same number of pair checks on
carriers of the same size, and run-to-run spread comes from the machine,
not from the draw.

    PYTHONPATH=src python3 perfbench/workloads.py --workload lamplighter --seed 1 --out config.json
"""
from __future__ import annotations

import argparse
import json
import random

import soficwreath as sw
from soficwreath.construct import derive_windows

MAX_DRAWS = 20_000

# Z wr Z on cyclic quotients of size 32, five targets that are reduced words
# of three letters in {light, step, step^-1}.
LAMPLIGHTER_SIZE = 32
LAMPLIGHTER_TARGETS = 5
LAMPLIGHTER_WORD = 3
LAMPLIGHTER_EPS = "1/10"

# Z/2 wr Z, lamps on the regular representation, base on a cyclic quotient
# of size 2400, one lamp-only target lit at 8 of the positions -6..6 with
# both ends lit.
WIDE_BASE_SIZE = 2400
WIDE_BASE_REACH = 6
WIDE_BASE_LIT = 8
WIDE_BASE_EPS = "1/10"

# Z/2 wr Z/4 (64 elements) on regular representations with every element a
# target, verified with --oracle.  Both factors are cyclic groups given as
# Cayley tables under a seeded relabelling, so a seed changes every element
# key, sort order and permutation while the work stays the same.
ORACLE_LAMP = 2
ORACLE_BASE = 4
ORACLE_EPS = "1/2"

# Pinned window profiles; see ``profile``.  Each is among the most frequent
# profiles of its generator's draws (for the lamplighter, among those with a
# lamp-only target), so a seed needs few redraws: about 50 and 3.
LAMPLIGHTER_PROFILE = (5, 11, 33, 7, 16, 5, 31, 2, 15, 8, 32, 1)
WIDE_BASE_PROFILE = (1, 2, 2, 1, 9, 2, 25, 2, 12, 8, 8, 1)


def profile(wreath: sw.WreathProduct, windows) -> tuple:
    """Everything about a target set that sets the cost of build and verify.

    Window sizes fix the number of pair checks; the largest lamp value and
    base element fix the cyclic-quotient radii (and so the artifact size);
    the support sizes fix how many coordinates each block touches; the
    number of lamp-only targets fixes the freeness checks that take the
    fixed-point path.
    """
    def magnitude(group, els):
        return max(abs(x) for x in els) if isinstance(group, sw.groups.IntegerGroup) else len(els)

    return (
        len(windows.targets),
        len(windows.closure),
        len(windows.lamp_window),
        len(windows.mover_window),
        len(windows.positions),
        len(windows.lamp_values),
        len(windows.base_window),
        magnitude(wreath.lamp, windows.lamp_values),
        magnitude(wreath.base, windows.base_window),
        sum(len(u.left.entries) for u in windows.closure),
        sum(len(f.entries) for f in windows.lamp_window),
        sum(1 for u in windows.targets if wreath.base.is_identity(u.right)),
    )


def _draw(wreath, pinned, draw_targets, rng: random.Random):
    for _ in range(MAX_DRAWS):
        targets = draw_targets(rng)
        windows = derive_windows(wreath, targets)
        if profile(wreath, windows) == pinned:
            return windows
    raise RuntimeError(f"no target set with profile {pinned} in {MAX_DRAWS} draws")


def _cyclic_quotient(size: int, values) -> dict:
    """The smallest radius the build accepts: require_sofic checks every
    product g + h of window elements, the largest being 2 max |g|."""
    return {"kind": "cyclic-quotient", "size": size, "radius": 2 * max(abs(v) for v in values)}


def _config(wreath, approximations: dict, windows, eps: str, seed: int) -> dict:
    return {
        "format": 1,
        "groups": {"lamp": wreath.lamp.descriptor(), "base": wreath.base.descriptor()},
        "approximations": approximations,
        "F": [wreath.encode(u) for u in windows.targets],
        "eps": eps,
        "seed": seed,
    }


def lamplighter(seed: int) -> dict:
    wreath = sw.wreath_product(sw.integers(), sw.integers())
    light, step, back = wreath.element({0: 1}, 0), wreath.element({}, 1), wreath.element({}, -1)
    cancels = {(step, back), (back, step)}

    def word(rng):
        u, prev = wreath.identity(), None
        for _ in range(LAMPLIGHTER_WORD):
            letter = rng.choice([g for g in (light, step, back) if (prev, g) not in cancels])
            u, prev = wreath.mul(u, letter), letter
        return u

    def draw_targets(rng):
        targets = set()
        while len(targets) < LAMPLIGHTER_TARGETS:
            targets.add(word(rng))
        return targets

    w = _draw(wreath, LAMPLIGHTER_PROFILE, draw_targets, random.Random(seed))
    approximations = {
        "lamp": _cyclic_quotient(LAMPLIGHTER_SIZE, w.lamp_values),
        "base": _cyclic_quotient(LAMPLIGHTER_SIZE, w.base_window),
    }
    return _config(wreath, approximations, w, LAMPLIGHTER_EPS, seed)


def wide_base(seed: int) -> dict:
    wreath = sw.wreath_product(sw.cyclic(2), sw.integers())
    reach = WIDE_BASE_REACH
    inner = range(-reach + 1, reach)

    def draw_targets(rng):
        lit = {-reach, reach, *rng.sample(inner, WIDE_BASE_LIT - 2)}
        return [wreath.element({x: 1 for x in lit}, 0)]

    w = _draw(wreath, WIDE_BASE_PROFILE, draw_targets, random.Random(seed))
    approximations = {
        "lamp": {"kind": "regular"},
        "base": _cyclic_quotient(WIDE_BASE_SIZE, w.base_window),
    }
    return _config(wreath, approximations, w, WIDE_BASE_EPS, seed)


def _relabelled_cyclic(n: int, rng: random.Random) -> sw.Group:
    label = list(range(n))
    rng.shuffle(label)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[label[a]][label[b]] = label[(a + b) % n]
    return sw.finite_from_table(table)


def finite_oracle(seed: int) -> dict:
    """Every element is a target: ``verify --oracle`` indexes its explicit
    values by the closure and fails on a product outside it, so the target
    set must be closed under multiplication."""
    rng = random.Random(seed)
    lamp, base = _relabelled_cyclic(ORACLE_LAMP, rng), _relabelled_cyclic(ORACLE_BASE, rng)
    return {
        "format": 1,
        "groups": {"lamp": lamp.descriptor(), "base": base.descriptor()},
        "approximations": {"lamp": {"kind": "regular"}, "base": {"kind": "regular"}},
        "F": "all",
        "eps": ORACLE_EPS,
        "seed": seed,
    }


GENERATORS = {"lamplighter": lamplighter, "wide-base": wide_base, "finite-oracle": finite_oracle}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    config = GENERATORS[args.workload](args.seed)
    with open(args.out, "w") as fh:
        json.dump(config, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
