"""Run one ``soficwreath`` command with the public functions of every layer traced.

    PYTHONPATH=src python3 perfbench/tracer.py trace.json verify --approx artifact.json

The command's stdout, stderr and exit code are those of ``soficwreath``
itself.  ``trace.json`` receives, per traced function, its call count, its
self time (its own wall time minus that of traced functions it called) and
the number of calls from each traced caller.

Wrappers replace the original in every namespace that holds it, including
the modules that bound it with ``from ... import``, so a call counts however
it is spelled; they are removed again before the trace is written.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

from soficwreath import bigperm, cli, construct, groups, perm, sofic, verify

SPAN, COUNT = "span", "count"

# (metric prefix, owner, attribute, kind).  A span is timed and nests; a
# count only counts calls, for methods too cheap and frequent to time.
TRACED = (
    ("perm.compose", perm, "compose", SPAN),
    ("perm.hamming", perm, "hamming", SPAN),
    ("perm.agreement_fraction", perm, "agreement_fraction", SPAN),
    ("perm.Permutation_init", perm.Permutation, "__post_init__", SPAN),
    ("groups.WreathProduct_mul", groups.WreathProduct, "mul", SPAN),
    ("groups.DirectSum_make", groups.DirectSum, "make", SPAN),
    ("groups.Group_sort", groups.Group, "sort", SPAN),
    ("sofic.require_sofic", sofic, "require_sofic", SPAN),
    ("sofic.SoficApprox_from_json", sofic.SoficApprox, "from_json", SPAN),
    ("sofic.SoficApprox_evaluate", sofic.SoficApprox, "evaluate", COUNT),
    ("bigperm.action_distance", bigperm, "action_distance", SPAN),
    ("bigperm.compose_actions", bigperm, "compose_actions", SPAN),
    ("bigperm.coord_action", bigperm, "coord_action", SPAN),
    ("bigperm.fixed_fraction", bigperm, "fixed_fraction", SPAN),
    ("bigperm.expand_explicit", bigperm, "expand_explicit", SPAN),
    ("bigperm.CoordAction_tau_map", bigperm.CoordAction, "tau_map", COUNT),
    ("construct.build", construct, "build", SPAN),
    ("construct.derive_windows", construct, "derive_windows", SPAN),
    ("construct.compute_good_blocks", construct, "compute_good_blocks", SPAN),
    ("construct.lamp_action", construct, "lamp_action", SPAN),
    ("construct.wreath_approx_from_json", construct, "wreath_approx_from_json", SPAN),
    ("construct.WreathApprox_rule", construct.WreathApprox, "rule", COUNT),
    ("verify.verify_construction", verify, "verify_construction", SPAN),
    ("verify.detailed_reports", verify, "detailed_reports", SPAN),
    ("verify.check_almost_homomorphism", verify, "check_almost_homomorphism", SPAN),
    ("verify.Certificate_to_json", verify.Certificate, "to_json", SPAN),
    ("cli.main", cli, "main", SPAN),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.edges = Counter()  # (caller span or None, callee span) -> calls
        self.root_s = 0.0  # wall time of spans called outside any span
        self.agreement_pairs = set()
        self.action_blocks = 0
        self._stack = []  # [span name, time spent in traced callees]
        self._patches = []  # (namespace, attribute, original)

    def _span(self, name, fn):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack

        def traced(*args, **kwargs):
            calls[name] += 1
            edges[stack[-1][0] if stack else None, name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed

        return traced

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe(self, name, fn):
        """Extra per-call counters, measured where the work happens."""
        if name == "perm.agreement_fraction":
            pairs = self.agreement_pairs

            def observed(s, t):
                pairs.add((s.image, t.image))
                return fn(s, t)

            return observed
        if name == "bigperm.action_distance":

            def observed(w, v):
                self.action_blocks += w.b_size
                return fn(w, v)

            return observed
        return fn

    def install(self):
        namespaces = [m for n, m in sys.modules.items() if n == "soficwreath" or n.startswith("soficwreath.")]
        for name, owner, attr, kind in TRACED:
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrap = self._span if kind == SPAN else self._count
            wrapped = functools.update_wrapper(wrap(name, self._observe(name, fn)), fn)
            if isinstance(owner, type):
                self._patch(owner, attr, raw, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                continue
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        self._patch(namespace, key, value, wrapped)

    def _patch(self, namespace, attr, original, replacement):
        setattr(namespace, attr, replacement)
        self._patches.append((namespace, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when none of the wrappers is left."""
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        restored = all(vars(ns)[attr] is original for ns, attr, original in self._patches)
        self._patches.clear()
        return restored

    def to_json(self) -> dict:
        return {
            "spans": [name for name, _, _, kind in TRACED if kind == SPAN],
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": {f"{caller or ''}>{callee}": n for (caller, callee), n in self.edges.items()},
            "root_s": self.root_s,
            "agreement_distinct": len(self.agreement_pairs),
            "action_distance_blocks": self.action_blocks,
        }


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        restored = tracer.restore()
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump({**tracer.to_json(), "restored": restored, "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
