"""The three workloads: their seeded ops, how an op runs, and how its output is checked.

Each workload runs in a closed loop with one client: one op at a time and at
most one op process.  Untraced, the CLI workloads start one process per op
(through launcher.py) and the library workload sends its ops to one worker
process.  Traced, the same ops are replayed in this process with spans
around the public functions.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle
from spans import Tracer, span_cost_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

PROB_TOL = 1e-12  # absolute, per probability
SYMMETRY_TOL = 1e-10  # the CLI's --tol default
CLI_SETUP_REPEATS = 7
LIB_SETUP_REPEATS = 7
MIN_OPS = 2
RUN_DEADLINE_S = 170  # children still running then are killed; the run must end within 180 s
L3_BYTES_REFERENCE = 105 * 2**20  # L3 of the 2-CPU Xeon the run sizes were set on
PROBE_L = 10  # the large-t probe's level: small, so the probe costs milliseconds
PROBE_TIMES = 8

PARSE_SPANS = ("cli.build_parser", "cli.parse_args", "subsets.Level", "subsets.parse_node")
HANDLER_SPANS = ("cli.cmd_evolve", "cli.cmd_time_average")
COMPUTE_SPANS = ("evolution.EvolutionEngine", "evolution.evolve", "measure.time_average", "measure.is_symmetric")
TRANSFORM_SPANS = ("spectral.to_eigenbasis", "spectral.from_eigenbasis")
# per-op span totals reported as <span name>_s
TIMED_SPANS = (
    "formatting.dumps_json",
    "measure.distribution_csv",
    "evolution.evolve",
    "spectral.to_eigenbasis",
    "spectral.from_eigenbasis",
    "measure.time_average",
    "measure.is_symmetric",
    "measure.distribution_at",
)


@dataclass
class Op:
    index: int
    node: int = 0
    t: float | None = None
    states: np.ndarray | None = None


@dataclass
class Outcome:
    index: int
    wall_s: float
    t: float | None
    failure: str | None = None
    max_err: float = math.nan
    maxrss_mib: float | None = None
    nbytes: int | None = None
    sha256: str | None = None


@dataclass
class RunResult:
    outcomes: list[Outcome]
    metrics: dict[str, tuple[float, str]]
    notes: dict = field(default_factory=dict)


def compare(probs: np.ndarray, ref: np.ndarray) -> tuple[str | None, float]:
    if probs.shape != ref.shape:
        return f"wrong length {probs.shape[0]}, expected {ref.shape[0]}", math.nan
    if not np.all(np.isfinite(probs)):
        return "non-finite probability", math.nan
    err = float(np.max(np.abs(probs - ref)))
    if err > PROB_TOL:
        return f"probability off the oracle by {err:.3g} > {PROB_TOL:g}", err
    return None, err


@functools.cache
def csv_labels(L: int) -> list[str]:
    """Quoted node labels in index order, built by doubling over the bits."""
    parts = [""]
    for k in range(L + 1):
        parts += [f"{p},{k}" if p else str(k) for p in parts]
    return [f'"{{{p}}}"' for p in parts]


class CliEvolveJson:
    name = "cli-evolve-json"
    L = 20
    # run-sizing constant, not a measurement: a 25-second run holds 4 ops here
    # (one op took 5.7-9.2 s on the 2-CPU reference Xeon), because this
    # workload's op-to-op spread needs the extra sample
    op_budget_s = 6.0

    def ops(self, seed: int, count: int) -> list[Op]:
        rng = inputs.generator(seed, 1)
        return [Op(i, node=inputs.node(rng, self.L), t=inputs.time(rng)) for i in range(count)]

    def argv(self, op: Op, out: Path) -> list[str]:
        return ["evolve", "--L", str(self.L), "--t", repr(op.t), "--initial", inputs.node_arg(op.node), "--out", str(out)]

    def check(self, data: bytes, op: Op) -> tuple[str | None, float]:
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return f"malformed JSON: {exc}", math.nan
        header = {"schema": "hyperwalk/1", "L": self.L, "engine": "spectral", "initial": inputs.node_label(op.node), "t": op.t}
        if not isinstance(doc, dict) or any(doc.get(k) != v for k, v in header.items()):
            return "wrong or missing header fields", math.nan
        probs = np.array(doc.get("probs"))
        if probs.ndim != 1 or probs.dtype.kind not in "fi":
            return "missing or malformed probs", math.nan
        return compare(probs.astype(np.float64), oracle.basis_probs(self.L, op.node, op.t))


class CliTimeAvgCsv:
    name = "cli-timeavg-csv"
    L = 17
    op_budget_s = 6.0  # 4 ops per 25-second run; one took 6.7 s on the reference Xeon

    def ops(self, seed: int, count: int) -> list[Op]:
        rng = inputs.generator(seed, 2)
        return [Op(i, node=inputs.node(rng, self.L)) for i in range(count)]

    def argv(self, op: Op, out: Path) -> list[str]:
        return ["time-average", "--L", str(self.L), "--initial", inputs.node_arg(op.node), "--format", "csv", "--out", str(out)]

    def check(self, data: bytes, op: Op) -> tuple[str | None, float]:
        lines = data.decode("utf-8", errors="replace").split("\n")
        dim = 1 << (self.L + 1)
        if len(lines) != dim + 3 or lines[0] != "node,probability" or lines[-1] != "":
            return "missing or malformed CSV, or wrong length", math.nan
        tag, _, dev = lines[-2].partition(",")
        try:
            rows = [row.rsplit(",", 1) for row in lines[1:-2]]
            labels = [r[0] for r in rows]
            probs = np.array([float(r[1]) for r in rows])
            deviation = float(dev)
        except (IndexError, ValueError):
            return "malformed CSV row", math.nan
        if labels != csv_labels(self.L):
            return "wrong node labels", math.nan
        if tag != "# symmetry_max_deviation" or not deviation <= SYMMETRY_TOL:
            return f"symmetry deviation line {lines[-2]!r} above {SYMMETRY_TOL:g}", math.nan
        return compare(probs, oracle.period_average_probs(self.L, op.node))


class LibEvolveDense:
    name = "lib-evolve-dense"
    L = 22
    op_budget_s = 6.0  # 4 ops per 25-second run; one took 5.7-9.6 s

    def ops(self, seed: int, count: int) -> list[Op]:
        """Every op evolves the same superposition, each to its own time."""
        rng = inputs.generator(seed, 3)
        states = inputs.product_states(rng, self.L)
        return [Op(i, t=inputs.time(rng), states=states) for i in range(count)]

    def check_probs(self, probs: np.ndarray, op: Op) -> tuple[str | None, float]:
        return compare(probs, oracle.product_sum_probs(op.states, op.t))


WORKLOADS = {w.name: w for w in (CliEvolveJson(), CliTimeAvgCsv(), LibEvolveDense())}


def op_count(workload, seconds: int) -> int:
    """Fixed per (workload, seconds), so every commit runs the same ops."""
    return max(MIN_OPS, int(seconds // workload.op_budget_s))


# ---------------------------------------------------------------- processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HYPERWALK_L_MAX", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Exit:
    wall_s: float
    code: int
    maxrss_mib: float


def reap(proc: subprocess.Popen, t0: float, deadline: float) -> Exit:
    """Wait for proc (killing it at the deadline) and collect its rusage."""
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(wall, proc.returncode, usage.ru_maxrss / 1024)


class Launcher:
    """The small process that starts every CLI op process (see launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], deadline: float, stderr: Path | None = None) -> Exit:
        req = {"argv": argv, "stderr": stderr and str(stderr), "timeout_s": max(0.0, deadline - time.perf_counter())}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Exit(reply["wall_s"], reply["code"], reply["maxrss_kib"] / 1024)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_cli(wl, ops: list[Op], deadline: float) -> RunResult:
    out_path = WORK / f"{wl.name}.out"
    err_path = WORK / f"{wl.name}.stderr"
    launcher = Launcher()
    try:
        setup = []
        for _ in range(CLI_SETUP_REPEATS):
            done = launcher.run([sys.executable, "-c", "import hyperwalk.cli"], deadline, err_path)
            if done.code != 0:
                raise RuntimeError(f"importing hyperwalk.cli from {SRC} failed: {err_path.read_text()}")
            setup.append(done.wall_s)
        outcomes = []
        for op in ops:
            out_path.unlink(missing_ok=True)
            done = launcher.run([sys.executable, "-m", "hyperwalk.cli", *wl.argv(op, out_path)], deadline, err_path)
            outcome = Outcome(op.index, done.wall_s, op.t, maxrss_mib=done.maxrss_mib)
            if done.code != 0:
                tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
                outcome.failure = f"exit {done.code}: {' '.join(tail)}"
            elif not out_path.exists():
                outcome.failure = "no output file"
            else:
                record_output(wl, op, out_path.read_bytes(), outcome)
            outcomes.append(outcome)
    finally:
        launcher.close()
        out_path.unlink(missing_ok=True)
    metrics = {
        "wall_s_p50": (statistics.median(o.wall_s for o in outcomes), "s"),
        "peak_rss_mib": (max(o.maxrss_mib for o in outcomes), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return RunResult(outcomes, metrics)


def record_output(wl, op: Op, data: bytes, outcome: Outcome) -> None:
    outcome.nbytes = len(data)
    outcome.sha256 = hashlib.sha256(data).hexdigest()
    outcome.failure, outcome.max_err = wl.check(data, op)


def read_exact(stream, nbytes: int) -> np.ndarray | None:
    buf = np.empty(nbytes // 8, dtype=np.float64)
    view = memoryview(buf).cast("B")
    got = 0
    while got < nbytes:
        n = stream.readinto(view[got:])
        if not n:
            return None
        got += n
    return buf


def start_worker(L: int):
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(L)],
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    ready = proc.stdout.readline()
    return proc, t0, time.perf_counter() - t0, bool(ready)


def stop_worker(proc, t0: float, deadline: float) -> Exit:
    proc.stdin.close()
    done = reap(proc, t0, deadline)
    proc.stdout.close()
    return done


def send(proc, request: dict) -> None:
    proc.stdin.write(json.dumps(request).encode() + b"\n")
    proc.stdin.flush()


def run_lib(wl, ops: list[Op], deadline: float) -> RunResult:
    setup = []
    proc = None
    try:
        for _ in range(LIB_SETUP_REPEATS):
            if proc is not None:
                stop_worker(proc, t0, deadline)
            proc, t0, startup, ready = start_worker(wl.L)
            if not ready:
                raise RuntimeError(f"the library worker did not start (hyperwalk from {SRC})")
            setup.append(startup)
        killer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
        killer.start()
        outcomes = []
        try:
            states = ops[0].states
            send(proc, {"re": states.real.tolist(), "im": states.imag.tolist()})
            if not proc.stdout.readline():
                raise RuntimeError("the library worker exited while building the state")
            for op in ops:
                send(proc, {"t": op.t})
                header = json.loads(proc.stdout.readline() or b'{"wall_s": NaN, "error": "worker exited"}')
                if "error" in header:
                    outcomes.append(Outcome(op.index, header["wall_s"], op.t, failure=header["error"]))
                    continue
                probs = read_exact(proc.stdout, header["nbytes"])
                outcome = Outcome(op.index, header["wall_s"], op.t)
                if probs is None:
                    outcome.failure = "truncated probabilities"
                else:
                    outcome.failure, outcome.max_err = wl.check_probs(probs, op)
                del probs
                outcomes.append(outcome)
        finally:
            killer.cancel()
        done = stop_worker(proc, t0, deadline)
        proc = None
    finally:
        if proc is not None:
            proc.kill()
            stop_worker(proc, t0, deadline)
    walls = [o.wall_s for o in outcomes if not math.isnan(o.wall_s)] or [math.nan]
    metrics = {
        "wall_s_p50": (statistics.median(walls), "s"),
        "peak_rss_mib": (done.maxrss_mib, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return RunResult(outcomes, metrics)


# ------------------------------------------------------------------ tracing


def import_library():
    """Import hyperwalk from this checkout into the benchmark process."""
    os.environ.pop("HYPERWALK_L_MAX", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hyperwalk.cli  # noqa: F401  (loads every module the spans wrap)

    found = Path(sys.modules["hyperwalk"].__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise RuntimeError(f"hyperwalk imported from {found}, not from {SRC}")
    return sys.modules["hyperwalk"]


def peak_alloc_mib(fn, *args, **kwargs) -> float:
    """Peak traced allocation of one call, in a pass of its own."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def copy_bandwidth() -> tuple[float, int]:
    """Copy bandwidth (read plus write bytes) on an array four times the L3."""
    nbytes = 4 * max(L3_BYTES_REFERENCE, l3_bytes())
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * nbytes / statistics.median(times) / 1e9, nbytes


def l3_bytes() -> int:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return 0
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def trace_run(wl, ops: list[Op], spans_path: Path) -> RunResult:
    hw = import_library()
    tracer = Tracer()
    outcomes = []
    with tracer.installed():
        if isinstance(wl, LibEvolveDense):
            level = hw.Level(wl.L)
            engine = hw.EvolutionEngine(level)
            psi = hw.StateVector(level, inputs.superposition(ops[0].states))
            for op in ops:
                tracer.op = op.index
                t0 = time.perf_counter()
                probs = sys.modules["hyperwalk.measure"].distribution_at(engine, psi, op.t).probs
                outcome = Outcome(op.index, time.perf_counter() - t0, op.t)
                tracer.op = None
                outcome.failure, outcome.max_err = wl.check_probs(probs, op)
                del probs
                outcomes.append(outcome)
        else:
            out_path = WORK / f"{wl.name}.out"
            for op in ops:
                out_path.unlink(missing_ok=True)
                tracer.op = op.index
                t0 = time.perf_counter()
                code = sys.modules["hyperwalk.cli"].main(wl.argv(op, out_path))
                outcome = Outcome(op.index, time.perf_counter() - t0, op.t)
                tracer.op = None
                if code != 0:
                    outcome.failure = f"main returned {code}"
                else:
                    record_output(wl, op, out_path.read_bytes(), outcome)
                outcomes.append(outcome)
            out_path.unlink(missing_ok=True)
    metrics = layer_metrics(wl, tracer, outcomes)
    metrics.update(alloc_metrics(hw, wl, ops[0]))
    gbps, copy_bytes = copy_bandwidth()
    metrics["mem.copy_gbps"] = (gbps, "GB/s")
    traced_wall = sum(o.wall_s for o in outcomes)
    metrics["trace.overhead_frac"] = (len(tracer.spans) * span_cost_s() / traced_wall, "1")
    tracer.write(spans_path)
    notes = {
        "copy_array_bytes": copy_bytes,
        "l3_bytes": l3_bytes(),
        "spans": len(tracer.spans),
        "span_file": str(spans_path.relative_to(ROOT)),
    }
    return RunResult(outcomes, metrics, notes)


def layer_metrics(wl, tracer: Tracer, outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    totals = tracer.per_op_totals()
    per_op = [totals.get(o.index, {}) for o in outcomes]
    compute = tracer.direct_children(HANDLER_SPANS, COMPUTE_SPANS)

    metrics = {}
    main = [t.get("cli.main", 0.0) for t in per_op]
    parse = [sum(t.get(n, 0.0) for n in PARSE_SPANS) for t in per_op]
    serialize = [m - p - compute.get(o.index, 0.0) if m else 0.0 for m, p, o in zip(main, parse, outcomes)]
    metrics["cli.parse_s"] = (statistics.median(parse), "s")
    metrics["cli.main_s"] = (statistics.median(main), "s")
    metrics["cli.serialize_s"] = (statistics.median(serialize), "s")
    metrics["cli.output_bytes"] = (sum(o.nbytes or 0 for o in outcomes), "B")
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = (statistics.median([t.get(name, 0.0) for t in per_op]), "s")
    residual = [t.get("evolution.evolve", 0.0) - sum(t.get(n, 0.0) for n in TRANSFORM_SPANS) for t in per_op]
    metrics["evolution.residual_s"] = (statistics.median(residual), "s")
    transforms = sum(1 for s in tracer.spans if s[0] in TRANSFORM_SPANS)
    transform_s = sum(s[2] - s[1] for s in tracer.spans if s[0] in TRANSFORM_SPANS)
    computed_bytes = transforms * 2 * 16 * (1 << (wl.L + 1)) * (wl.L + 1)
    metrics["spectral.transform_gbps"] = (computed_bytes / transform_s / 1e9 if transform_s else 0.0, "GB/s")
    first = [o.max_err for o in outcomes if o.t is not None]
    average = [o.max_err for o in outcomes if o.t is None]
    for name, errs in (("first_period", first), ("average", average)):
        metrics[f"check.max_prob_err_{name}"] = (max(errs, default=0.0), "1")
    return metrics


def large_t_probe(seed: int) -> list[tuple[float, float]]:
    """The default engine's probability error at large t: measured, not gated.

    The spectral engine reduces t modulo the float pi, so its error grows with
    t and passes the 1e-12 tolerance near t = 1e4.  Timed ops therefore stay in
    the first period, where every output must match the oracle, and this probe
    evolves a seeded basis node at PROBE_L to seeded times in [pi, 1e12].  It
    returns (t, largest probability error) per time; a fix shows as every error
    dropping to rounding level.
    """
    hw = import_library()
    rng = inputs.generator(seed, 4)
    sigma = inputs.node(rng, PROBE_L)
    level = hw.Level(PROBE_L)
    engine = hw.EvolutionEngine(level)
    start = hw.basis_state(level, sigma)
    out = []
    for t in inputs.large_times(rng, PROBE_TIMES):
        probs = hw.distribution_at(engine, start, t).probs
        out.append((t, float(np.max(np.abs(probs - oracle.basis_probs(PROBE_L, sigma, t))))))
    return out


def alloc_metrics(hw, wl, op: Op) -> dict[str, tuple[float, str]]:
    level = hw.Level(wl.L)
    engine = hw.EvolutionEngine(level)
    if op.states is not None:
        state = hw.StateVector(level, inputs.superposition(op.states))
    else:
        state = hw.basis_state(level, op.node)
    t = op.t if op.t is not None else 1.0
    metrics = {"evolution.evolve_peak_alloc_mib": (peak_alloc_mib(hw.evolve, engine, state, t), "MiB")}
    average_peak = 0.0
    if isinstance(wl, CliTimeAvgCsv):
        average_peak = peak_alloc_mib(hw.time_average, state, method="quadrature", engine=engine)
    metrics["measure.time_average_peak_alloc_mib"] = (average_peak, "MiB")
    return metrics


# -------------------------------------------------------------- environment


def environment() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l3_bytes": l3_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"
