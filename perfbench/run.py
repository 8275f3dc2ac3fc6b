"""End-to-end and per-layer benchmark of the ``soficwreath`` command line.

    python3 perfbench/run.py --workload lamplighter --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it uses the package under ``src/``.
With ``--trace 0`` it times ``soficwreath build`` and ``soficwreath verify``
processes one at a time for ``--seconds`` and reports medians.  With
``--trace 1`` it first checks the tracer on Z/2 wr Z/3, then alternates
untraced and traced build and verify, and reports per-layer counts and self
times from the traced processes.  Every call's artifact and certificate are
checked; any failure makes ``correct`` false and the exit code 1.  The last
line of stdout is the JSON result; the line before it records the
environment and the digests.  Without ``--workload`` it runs every workload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("lamplighter", "wide-base", "finite-oracle")
ORACLE_WORKLOADS = {"finite-oracle"}
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
RUN_LIMIT_S = 170  # every child is killed once a run has taken this long
BUILDS_PER_ROUND = 2  # a build is short, so each round takes several samples
# The reference process: interpreter start-up, then random access over about
# 25 MB of tuples and a little dict and Fraction work, much like the
# program's own.  A reference with a small working set did not slow down when
# the program did: on the machine this was tuned on, the drift comes from
# contention for caches and memory, which only a large working set feels.
CALIBRATION_PROGRAM = """
import random
from fractions import Fraction
rng = random.Random(0)
rows = [tuple(range(i % 64)) for i in range(40000)]
order = list(range(len(rows)))
rng.shuffle(order)
total = 0
for _ in range(2):
    for i in order:
        row = rows[i]
        total += len(row) + (row[-1] if row else 0)
counts = {}
for i in order[:20000]:
    key = (i % 211, i % 7)
    counts[key] = counts.get(key, 0) + i * i % 13
sum(Fraction(v, a + 1) for (a, _), v in counts.items())
"""
CALIBRATION_REF_S = 0.2  # the reference process's wall time at the reference speed
MB = 1e6


class BenchError(Exception):
    """A gate failed: the program did not produce the expected output."""


def spawn(argv: list[str], env: dict, timeout: float, stdout=None, stderr=None) -> tuple[float, int, os.struct_rusage]:
    """Run one child to completion: its wall time, exit code and resource use.

    It waits with a blocking wait4, which returns the child's peak RSS.
    Popen.wait(timeout) would poll in sleeps of up to 50 ms and round the
    wall time up to them.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # so Popen does not wait for it again
    return wall, proc.returncode, usage


def calibrate(env: dict) -> float:
    """Wall time of the reference process, a fixed stdlib-only program."""
    wall, code, _ = spawn([sys.executable, "-c", CALIBRATION_PROGRAM], env, RUN_LIMIT_S)
    if code != 0:
        raise BenchError(f"the reference process exited {code}")
    return wall


@dataclass
class Call:
    seconds: float  # wall time scaled to the reference speed (see Runner.run)
    wall_s: float
    rss_mb: float
    code: int
    stdout: Path
    stderr: Path


class Runner:
    """Starts one child at a time inside the work directory and reaps it."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.calibrations = []

    def run(self, argv: list[str], tag: str) -> Call:
        """Run one child to completion.

        A shared machine's speed can drift by a fifth or more within
        seconds.  So the reference process runs right before and right
        after each child,
        and the child's wall time is scaled to the speed at which the
        reference takes CALIBRATION_REF_S.  The raw wall time is kept as
        ``wall_s``.
        """
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError(f"{tag}: run time limit of {RUN_LIMIT_S} s reached")
        if not self.calibrations:
            self.calibrations.append(calibrate(self.env))
        before = self.calibrations[-1]
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            wall, code, usage = spawn(argv, self.env, timeout, fout, ferr)
        after = calibrate(self.env)
        self.calibrations.append(after)
        seconds = wall * CALIBRATION_REF_S / ((before + after) / 2)
        return Call(seconds, wall, usage.ru_maxrss * 1024 / MB, code, out, err)

    def cli(self, args: list[str], tag: str, trace: Path | None = None) -> Call:
        if trace is None:
            return self.run([sys.executable, "-m", "soficwreath", *args], tag)
        return self.run([sys.executable, str(HERE / "tracer.py"), str(trace), *args], tag)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def group_order(desc: dict) -> int:
    if desc["kind"] == "cyclic":
        return desc["n"]
    if desc["kind"] == "table":
        return len(desc["table"])
    raise BenchError(f"no order for group kind {desc['kind']!r}")


class Checker:
    """Checks each round's outputs against the config and reference digests.

    The reference digests come from ``digests.json`` when it lists the seed,
    otherwise from the first round of the run.  An exact certificate does not
    depend on carrier size, so only the artifact digest pins the size.
    """

    def __init__(self, config: dict, oracle: bool, reference: dict | None):
        self.oracle = oracle
        self.reference = reference
        self.from_table = reference is not None
        if config["F"] == "all":
            lamp, base = (group_order(config["groups"][side]) for side in ("lamp", "base"))
            self.window = None
            self.n_targets = lamp**base * base
            self.carrier = self.n_targets  # regular representations: |A|^|B| |B| = |G|
        else:
            self.window = config["F"]
            self.n_targets = len(self.window)

    def check(self, rnd: Round) -> list[str]:
        """Problems with one round of build and verify calls."""
        for build in rnd.builds:
            if build.code != 0:
                return [f"build exited {build.code}: {build.stderr.read_text()[-300:]}"]
        verify, artifact = rnd.verify, rnd.artifacts[-1]
        problems = []
        if verify.code != 0:
            problems.append(f"verify exited {verify.code}: {verify.stderr.read_text()[-300:]}")
        if len({sha256(path) for path in rnd.artifacts}) > 1:
            problems.append("builds of one config wrote different artifacts")
        digests = {"artifact": sha256(artifact), "certificate": sha256(verify.stdout)}
        if self.reference is None:
            self.reference = digests
        for key, digest in digests.items():
            if digest != self.reference[key]:
                problems.append(f"{key} digest {digest[:12]} != reference {self.reference[key][:12]}")
        try:
            cert = json.loads(verify.stdout.read_bytes())
            stored = json.loads(artifact.read_bytes())
        except ValueError as exc:
            return problems + [f"unreadable output: {exc}"]
        if cert.get("kind") != "sofic-certificate" or cert.get("pass") is not True:
            problems.append('certificate does not say "pass": true')
        window = cert.get("window", [])
        if len(window) != self.n_targets or (self.window is not None and window != self.window):
            problems.append(f"certificate window has {len(window)} elements, expected {self.n_targets}")
        if stored.get("targets") != window:
            problems.append("artifact targets differ from the certificate window")
        if len(cert.get("mult_defects", [])) != self.n_targets**2:
            problems.append(f"certificate has {len(cert.get('mult_defects', []))} pairs, expected {self.n_targets ** 2}")
        if self.oracle:
            confirmation = f"oracle: all distances confirmed on {self.carrier} points"
            if confirmation not in verify.stderr.read_text():
                problems.append("verify --oracle did not confirm the distances")
        return problems


def load_reference(workload: str, seed: int) -> dict | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def setup(runner: Runner, workload: str, seed: int, repeats: int) -> tuple[dict, list[Call]]:
    """Generate the config in a fresh interpreter that imports soficwreath."""
    config_path = runner.work / "config.json"
    calls, first = [], None
    for i in range(repeats):
        call = runner.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed), "--out", str(config_path)],
            f"setup{i}",
        )
        if call.code != 0:
            raise BenchError(f"config generator exited {call.code}: {call.stderr.read_text()[-300:]}")
        data = config_path.read_bytes()
        if first is not None and data != first:
            raise BenchError("config generator is not deterministic")
        first = data
        calls.append(call)
    return json.loads(first), calls


@dataclass
class Round:
    builds: list[Call] = field(default_factory=list)
    artifacts: list[Path] = field(default_factory=list)
    verify: Call | None = None  # None when a build failed


def play_round(runner: Runner, oracle: bool, tag: str, builds: int = 1, traces: tuple[Path, Path] | None = None) -> Round:
    """Build the config ``builds`` times, then verify the last artifact."""
    build_trace, verify_trace = traces or (None, None)
    config = str(runner.work / "config.json")
    rnd = Round()
    for i in range(builds):
        artifact = runner.work / f"{tag}.artifact{i}.json"
        build = runner.cli(["build", "--config", config, "--out", str(artifact)], f"{tag}.build{i}", build_trace)
        rnd.builds.append(build)
        rnd.artifacts.append(artifact)
        if build.code != 0:
            return rnd
    verify_args = ["verify", "--approx", str(rnd.artifacts[-1]), *(["--oracle"] if oracle else [])]
    rnd.verify = runner.cli(verify_args, f"{tag}.verify", verify_trace)
    return rnd


def gate(tally: dict, checker: Checker, rnd: Round):
    """Count the calls of one round and stop the run on a problem."""
    problems = checker.check(rnd)
    tally["attempted"] += len(rnd.builds) + (rnd.verify is not None)
    if problems:
        tally["failed"] += 1
        raise BenchError("; ".join(problems))


def timed_run(runner: Runner, workload: str, seed: int, seconds: float, tally: dict) -> tuple[dict, dict]:
    start = perf_counter()
    config, setup_calls = setup(runner, workload, seed, SETUP_REPEATS)
    oracle = workload in ORACLE_WORKLOADS
    checker = Checker(config, oracle, load_reference(workload, seed))
    rounds = []
    measure_start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - measure_start < seconds:
        rnd = play_round(runner, oracle, "run", BUILDS_PER_ROUND)
        gate(tally, checker, rnd)
        rounds.append(rnd)
    builds = [b for rnd in rounds for b in rnd.builds]
    verifies = [rnd.verify for rnd in rounds]
    metrics = {
        "setup_s": (median(c.seconds for c in setup_calls), "s"),
        "build_s": (median(c.seconds for c in builds), "s"),
        "verify_s": (median(c.seconds for c in verifies), "s"),
        "build_rss_mb": (median(c.rss_mb for c in builds), "MB"),
        "verify_rss_mb": (median(c.rss_mb for c in verifies), "MB"),
        "artifact_mb": (rounds[-1].artifacts[-1].stat().st_size / MB, "MB"),
    }
    info = {
        "rounds": len(rounds),
        "samples": {"setup": len(setup_calls), "build": len(builds), "verify": len(verifies)},
        "wall_medians_s": {
            "setup": median(c.wall_s for c in setup_calls),
            "build": median(c.wall_s for c in builds),
            "verify": median(c.wall_s for c in verifies),
            "reference": median(runner.calibrations),
        },
        "wall_s": perf_counter() - start,
        "digests": checker.reference,
        "digests_from_table": checker.from_table,
    }
    return metrics, info


# ---------------------------------------------------------------------------
# the traced run

SPANS = (
    "perm.compose", "perm.hamming", "perm.agreement_fraction", "perm.Permutation_init",
    "groups.WreathProduct_mul", "groups.DirectSum_make", "groups.Group_sort",
    "sofic.require_sofic", "sofic.SoficApprox_from_json",
    "bigperm.action_distance", "bigperm.compose_actions", "bigperm.coord_action", "bigperm.fixed_fraction",
    "construct.build", "construct.derive_windows", "construct.compute_good_blocks", "construct.lamp_action",
    "construct.wreath_approx_from_json",
    "verify.verify_construction", "verify.detailed_reports", "verify.check_almost_homomorphism",
    "verify.Certificate_to_json",
)
COUNTS = (
    "sofic.SoficApprox_evaluate", "bigperm.expand_explicit", "bigperm.CoordAction_tau_map",
    "construct.WreathApprox_rule",
)

# Z/2 wr Z/3 with all 24 elements as targets: the closure is the whole
# group, so the certificate and the conclusion bullet each check 24^2 pairs,
# and the certificate adds one freeness distance per non-identity target.
CONSERVATION_CONFIG = {
    "format": 1,
    "groups": {"lamp": {"kind": "cyclic", "n": 2}, "base": {"kind": "cyclic", "n": 3}},
    "approximations": {"lamp": {"kind": "regular"}, "base": {"kind": "regular"}},
    "F": "all",
    "eps": "1/2",
    "seed": 0,
}
CONSERVATION_EXPECTED = {
    "verify.verify_construction>groups.WreathProduct_mul": 576,
    "verify.check_almost_homomorphism>groups.WreathProduct_mul": 576,
    "verify.verify_construction>bigperm.action_distance": 576 + 23,
}


def read_trace(path: Path) -> dict:
    """Load one process trace and check that its accounting balances."""
    trace = json.loads(path.read_text())
    if not trace["restored"]:
        raise BenchError(f"{path.name}: tracer left wrappers installed")
    if {k: v for k, v in trace["edges"].items() if k.startswith(">")} != {">cli.main": 1}:
        raise BenchError(f"{path.name}: traced work ran outside cli.main")
    into = {}
    for edge, n in trace["edges"].items():
        callee = edge.split(">")[1]
        into[callee] = into.get(callee, 0) + n
    if any(into.get(name, 0) != trace["calls"].get(name, 0) for name in trace["spans"]):
        raise BenchError(f"{path.name}: calls and caller edges disagree")
    total_self = sum(trace["self_s"].values())
    if abs(total_self - trace["root_s"]) > 1e-6 * max(1.0, trace["root_s"]):
        raise BenchError(f"{path.name}: self times sum to {total_self}, root spans to {trace['root_s']}")
    return trace


def merge(traces: list[dict]) -> dict:
    out = {"calls": {}, "self_s": {}, "edges": {}, "agreement_distinct": 0, "action_distance_blocks": 0}
    for trace in traces:
        for key in ("calls", "self_s", "edges"):
            for name, value in trace[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["agreement_distinct"] += trace["agreement_distinct"]
        out["action_distance_blocks"] += trace["action_distance_blocks"]
    return out


def layer_metrics(trace: dict, stdout_bytes: int) -> dict:
    calls, self_s, edges = trace["calls"], trace["self_s"], trace["edges"]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNTS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    agreements = calls.get("perm.agreement_fraction", 0)
    rules = calls.get("construct.WreathApprox_rule", 0)
    metrics["perm.agreement_fraction.distinct_ratio"] = (
        trace["agreement_distinct"] / agreements if agreements else 0.0, "ratio")
    metrics["bigperm.action_distance.blocks"] = (trace["action_distance_blocks"], "count")
    metrics["construct.WreathApprox_rule.hit_ratio"] = (
        1 - calls.get("construct.lamp_action", 0) / rules if rules else 0.0, "ratio")
    metrics["verify.pairs"] = (edges.get("verify.verify_construction>groups.WreathProduct_mul", 0), "count")
    metrics["cli.main.self_s"] = (self_s.get("cli.main", 0.0), "s")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    return metrics


def conservation_check(runner: Runner):
    """Trace Z/2 wr Z/3 and compare the counts with hand-derived ones."""
    (runner.work / "config.json").write_text(json.dumps(CONSERVATION_CONFIG))
    checker = Checker(CONSERVATION_CONFIG, True, None)
    traces = runner.work / "cons.build.trace", runner.work / "cons.verify.trace"
    for rnd in (play_round(runner, True, "cons"), play_round(runner, True, "cons-traced", traces=traces)):
        problems = checker.check(rnd)
        if problems:
            raise BenchError("Z/2 wr Z/3: " + "; ".join(problems))
    edges = merge([read_trace(path) for path in traces])["edges"]
    for edge, expected in CONSERVATION_EXPECTED.items():
        if edges.get(edge) != expected:
            raise BenchError(f"Z/2 wr Z/3: traced {edge} = {edges.get(edge)}, expected {expected}")


def traced_run(runner: Runner, workload: str, seed: int, seconds: float, tally: dict) -> tuple[dict, dict]:
    start = perf_counter()
    conservation_check(runner)
    config, _ = setup(runner, workload, seed, 1)
    oracle = workload in ORACLE_WORKLOADS
    checker = Checker(config, oracle, load_reference(workload, seed))
    plain_verify, traced_verify, layers = [], [], []
    measure_start = perf_counter()
    while len(layers) < MIN_TRACED_ROUNDS or perf_counter() - measure_start < seconds:
        plain = play_round(runner, oracle, "plain")
        gate(tally, checker, plain)
        plain_verify.append(plain.verify.seconds)
        traces = runner.work / "build.trace", runner.work / "verify.trace"
        traced = play_round(runner, oracle, "traced", traces=traces)
        gate(tally, checker, traced)
        traced_verify.append(traced.verify.seconds)
        stdout_bytes = traced.builds[0].stdout.stat().st_size + traced.verify.stdout.stat().st_size
        layers.append(layer_metrics(merge([read_trace(path) for path in traces]), stdout_bytes))
    metrics = {name: (median(m[name][0] for m in layers), unit) for name, (_, unit) in layers[0].items()}
    metrics["cli.trace_overhead"] = (median(traced_verify) / median(plain_verify), "ratio")
    info = {
        "rounds": len(layers),
        "wall_s": perf_counter() - start,
        "digests": checker.reference,
        "digests_from_table": checker.from_table,
    }
    return metrics, info


# ---------------------------------------------------------------------------


def read_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


@contextmanager
def work_dir(name: str):
    """A work directory under .bench_work in the checkout, removed afterwards."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_workload(workload: str, seed: int, seconds: float, trace: int, tally: dict) -> tuple[dict, dict]:
    with work_dir(f"{workload}-{seed}") as work:
        runner = Runner(work, perf_counter() + RUN_LIMIT_S)
        return (traced_run if trace else timed_run)(runner, workload, seed, seconds, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "soficwreath" / "cli.py").is_file():
        print(f"error: run from the root of a soficwreath checkout (no src/soficwreath in {ROOT})", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": read_commit(),
        "loadavg_before": os.getloadavg(),
    }
    tally = {"attempted": 0, "failed": 0}
    metrics, info, correct = {}, {}, True
    for workload in workloads:
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        try:
            found, info[workload] = run_workload(workload, args.seed, args.seconds, args.trace, tally)
        except BenchError as exc:
            print(f"{workload}: FAILED: {exc}", file=sys.stderr)
            correct = False
            continue
        for name, (value, unit) in found.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
            print(f"{prefix + name:52s} {value:>16.6g} {unit}", file=sys.stderr)
    environment["loadavg_after"] = os.getloadavg()
    print(json.dumps({"environment": environment, "workloads": info}))
    print(json.dumps({"correct": correct, "attempted": max(tally["attempted"], 1), "failed": tally["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
