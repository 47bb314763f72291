"""The ringgraph benchmark: seeded workloads, checked verdicts, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``ringgraph`` from
``src/`` there and refuses (exit 2) when that tree is missing.  Load is a
closed loop from one process with one thread: each pass is a fresh
``worker.py`` interpreter (or, for ``cli-sessions``, one cold
``python -m ringgraph`` process per call) started only when the previous
one has exited.  ``--trace 0`` repeats the workload's fixed input set while
another pass fits in ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs one plain and one traced pass and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.  The
last stdout line is the result object; the line before it records the run
environment and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
EXPECTED_CLI = HERE / "expected" / "cli_stdout.json"
WORKLOADS = ("sr-small", "sr-wide", "gb", "cli-sessions")
SETUP_PROBES = 5  # before the first pass and again after the last

_NODAL = "sessions/nodal_curve.rg"
_PLANES = "sessions/two_disjoint_planes.rg"
_CYCLE = "sessions/four_cycle_of_planes.rg"
_SURFACE = "sessions/surface_with_two_planes_over_a_line.rg"


def _calls(session: str, *commands) -> list:
    return [[c[0], "--session", session, *c[1:]] for c in commands]


# Every command that applies to each bundled session; each must exit 0 with
# the stdout recorded in expected/cli_stdout.json.
CLI_CALLS = (
    _calls(
        _NODAL,
        ("gb", "I", "grevlex"), ("gb", "I", "lex"), ("dim", "I"), ("minprimes", "I"),
        ("minprimes", "I", "--strategy", "split"), ("gamma", "R"), ("connected", "R"),
        ("disconnection", "R"), ("punctured", "R", "B1"), ("hl", "R", "B1"),
        ("s2member", "R", "y / (x + 2*y)"), ("s2local", "R"),
    )
    + _calls(
        _PLANES,
        ("gb", "I", "grevlex"), ("dim", "I"), ("minprimes", "I", "--strategy", "monomial"),
        ("gamma", "R"), ("connected", "R"), ("disconnection", "R"), ("punctured", "R", "P1"),
        ("hl", "R", "P1"), ("s2member", "R", "x / (x + z)"), ("s2local", "R"),
    )
    + _calls(
        _CYCLE,
        ("gb", "I", "grevlex"), ("dim", "I"), ("minprimes", "I"), ("gamma", "R"),
        ("gamma", "D"), ("connected", "R"), ("disconnection", "R"), ("punctured", "R", "I"),
        ("hl", "R", "I"), ("s2member", "R", "x1 / (x1 + x2 + x3 + x4)"), ("s2local", "R"),
    )
    + _calls(
        _SURFACE,
        ("gb", "J", "grevlex"), ("gb", "J", "elim:1"), ("dim", "J"), ("kernel", "phi"),
        ("contract", "Q1", "phi"), ("contract", "Q2", "phi"), ("minprimes", "P"),
        ("gamma", "R"), ("connected", "R"), ("disconnection", "R"), ("punctured", "R", "P"),
        ("hl", "R", "P"), ("s2member", "R", "e / d"), ("s2local", "R"),
    )
)


def call_key(argv: list) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# child processes


class Child:
    """Outcome of one child process: wall time from spawn to exit, exit
    code, output and the child's own peak resident set size."""

    def __init__(self, seconds, code, stdout, stderr, maxrss_kb):
        self.seconds = seconds
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb

    def result(self) -> dict:
        """The JSON object on a worker's last stdout line."""
        if self.code != 0:
            raise RuntimeError(f"worker exited {self.code}: {self.stderr.strip()[-400:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def spawn(cmd: list, root: Path, env: dict) -> Child:
    started = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        chunks = {proc.stdout: [], proc.stderr: []}
        try:
            with selectors.DefaultSelector() as sel:
                for stream in chunks:
                    sel.register(stream, selectors.EVENT_READ)
                while sel.get_map():
                    for key, _ in sel.select():
                        data = os.read(key.fd, 65536)
                        if data:
                            chunks[key.fileobj].append(data)
                        else:
                            sel.unregister(key.fileobj)
        except BaseException:
            proc.kill()  # the with block then waits for it
            raise
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        seconds,
        proc.returncode,
        b"".join(chunks[proc.stdout]).decode(),
        b"".join(chunks[proc.stderr]).decode(errors="replace"),
        usage.ru_maxrss,
    )


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("RINGGRAPH_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# passes


class PassResult:
    def __init__(self, latencies, failures, rss_kb, trace=None, ring_pairs=0):
        self.latencies = latencies  # seconds, one per op
        self.failures = failures
        self.rss_kb = rss_kb
        self.trace = trace
        self.ring_pairs = ring_pairs

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def worker_pass(workload: str, seed: int, trace: bool, root: Path, env: dict) -> PassResult:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    child = spawn(cmd + (["--trace"] if trace else []), root, env)
    doc = child.result()
    return PassResult(
        [seconds for _kind, seconds in doc["ops"]],
        doc["failures"],
        child.maxrss_kb,
        doc["trace"],
        doc["ring_pairs"],
    )


def cli_pass(calls: list, expected: dict, trace: bool, root: Path, env: dict) -> PassResult:
    latencies, failures, rss, traces = [], [], 0, []
    for argv in calls:
        if trace:
            cmd = [sys.executable, str(WORKER), "--cli-argv", json.dumps(argv)]
        else:
            cmd = [sys.executable, "-m", "ringgraph", *argv]
        child = spawn(cmd, root, env)
        latencies.append(child.seconds)
        rss = max(rss, child.maxrss_kb)
        if trace:
            try:
                doc = child.result()
            except (RuntimeError, ValueError, IndexError) as e:
                failures.append(f"{call_key(argv)}: {e}")
                continue
            code, stdout = doc["code"], doc["stdout"]
            traces.append(doc["trace"])
        else:
            code, stdout = child.code, child.stdout
        if code != 0:
            failures.append(f"{call_key(argv)}: exit {code} {child.stderr.strip()[-200:]}")
        elif stdout != expected.get(call_key(argv)):
            failures.append(f"{call_key(argv)}: stdout differs from the recorded report")
    return PassResult(latencies, failures, rss, merge_traces(traces) if trace else None)


def run_pass(workload: str, seed: int, trace: bool, root: Path, env: dict) -> PassResult:
    if workload == "cli-sessions":
        calls = [list(argv) for argv in CLI_CALLS]
        random.Random(seed).shuffle(calls)
        expected = json.loads(EXPECTED_CLI.read_text())
        return cli_pass(calls, expected, trace, root, env)
    return worker_pass(workload, seed, trace, root, env)


def setup_probe(root: Path, env: dict) -> float:
    """Seconds for a fresh interpreter to start, import ringgraph and exit."""
    child = spawn([sys.executable, "-c", "import ringgraph"], root, env)
    if child.code != 0:
        raise RuntimeError(f"import ringgraph failed: {child.stderr.strip()[-400:]}")
    return child.seconds


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile: a latency that was measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(passes: list, setup: list) -> dict:
    latencies = [s for p in passes for s in p.latencies]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": percentile(latencies, 0.9) * 1000.0,
        "peak_rss_mb": statistics.median(p.rss_kb for p in passes) / 1024.0,
    }


def merge_traces(traces: list) -> dict:
    merged = {"funcs": {}, "ring_height_calls": 0, "buchberger_monomial": 0, "basis_terms": 0, "coeff_bits_max": 0}
    for t in traces:
        for name, (calls, self_s) in t["funcs"].items():
            entry = merged["funcs"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key in ("ring_height_calls", "buchberger_monomial", "basis_terms"):
            merged[key] += t[key]
        merged["coeff_bits_max"] = max(merged["coeff_bits_max"], t["coeff_bits_max"])
    return merged


def per_layer(names: list, plain: PassResult, traced: PassResult) -> dict:
    t = traced.trace
    funcs = t["funcs"]

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "groebner.basis_terms": t["basis_terms"],
        "groebner.coeff_bits_max": t["coeff_bits_max"],
        "groebner.buchberger.monomial_share": ratio(
            t["buchberger_monomial"], funcs["groebner.buchberger"][0]
        ),
        "complexes.sr_ideal_per_face_ring": ratio(
            funcs["complexes.sr_ideal"][0], funcs["complexes.face_ring"][0]
        ),
        "gamma.heights_per_pair": ratio(t["ring_height_calls"], traced.ring_pairs),
        "bench.trace_overhead": ratio(traced.wall, plain.wall),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            func, _, field = name.rpartition(".")
            calls, self_s = funcs[func]
            out[name] = {"calls": calls, "self_s": self_s}[field]
    return out


# ---------------------------------------------------------------------------


def run_environment(root: Path, args) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)), timeout=30,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def main() -> int:
    # Turn a termination request into SystemExit so a running child is
    # killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description="the ringgraph benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    missing = [p for p in ("src/ringgraph/__init__.py", "sessions", "BENCHMARK.json") if not (root / p).exists()]
    if missing:
        print(f"not a ringgraph checkout: missing {', '.join(missing)} in {root}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = child_env(root)
    started = time.perf_counter()

    setup_probe(root, env)  # unmeasured: compiles bytecode on a fresh checkout
    if args.trace:
        plain = run_pass(args.workload, args.seed, False, root, env)
        traced = run_pass(args.workload, args.seed, True, root, env)
        passes = [plain, traced]
        section = spec["per_layer"]
        values = per_layer([m["name"] for m in section], plain, traced)
    else:
        setup = [setup_probe(root, env) for _ in range(SETUP_PROBES)]
        passes = []
        while True:
            before = time.perf_counter()
            passes.append(run_pass(args.workload, args.seed, False, root, env))
            took = time.perf_counter() - before
            closing = statistics.median(setup) * SETUP_PROBES
            if time.perf_counter() - started + took + closing > args.seconds:
                break
        setup += [setup_probe(root, env) for _ in range(SETUP_PROBES)]
        section = spec["end_to_end"]
        values = end_to_end(passes, setup)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    summary = run_environment(root, args)
    summary.update(passes=len(passes), fail_ratio=len(failures) / attempted)
    print(json.dumps({"env": summary}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
