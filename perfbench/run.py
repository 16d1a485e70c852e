#!/usr/bin/env python3
"""formuniq benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload profiles --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One caller issues operations back to back (a closed loop, no concurrency)
with every BLAS/OpenMP pool pinned to one thread.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  Lines before it, starting
with ``#``, record the environment, the tail percentile used, the
outcome of every output check, and the wall-clock times: every reported
time is in reference seconds, wall-clock time scaled by the speed of a
fixed calibration kernel sampled between operations (speed.py).  See
README.md in this directory.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads; probe processes inherit it
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"

# fresh processes besides the run itself: some time import and set-up,
# the others import only (import time varies more and costs less)
SETUP_PROBES = 3
IMPORT_PROBES = 6
SPEED_SAMPLES = 5  # kernel samples after the import and after the set-up
WARM_SEED = 2**31 - 1  # warm-up inputs: one fixed seed, never the measured one
TAIL_BEYOND = 10  # samples beyond the tail percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "import_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_formuniq():
    """Import formuniq from ``src/`` of the checkout; time the import."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import formuniq

    elapsed = time.perf_counter() - t0
    if Path(formuniq.__file__).resolve().parent != (SRC / "formuniq").resolve():
        fail(f"imported formuniq from {formuniq.__file__}, not from {SRC}")
    import formuniq.cli  # noqa: F401  (the command line is not imported by the package)

    return formuniq, elapsed


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="operation time to measure, in reference seconds (speed.py)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, two probes")
    ap.add_argument("--probe", choices=("import", "setup"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def warm_seed(seed: int) -> int:
    return WARM_SEED if seed != WARM_SEED else WARM_SEED - 1


def set_up(fq, args, workdir: Path):
    """Prepare fixed inputs, warm up on another seed's inputs, and generate
    the first round.  Returns the workload, its generator and the first
    round."""
    import numpy as np

    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    warm = WORKLOADS[args.workload](fq, str(workdir))
    warm.prepare()
    for op in warm.make_round(np.random.default_rng(warm_seed(args.seed)), 0, True):
        run_one(op, None, -1)
    wl = WORKLOADS[args.workload](fq, str(workdir))
    wl.prepare()
    rng = np.random.default_rng(args.seed)
    return wl, rng, wl.make_round(rng, 0, args.smoke)


def timed_import(import_wall: float):
    """The ``Speed`` sampler, and an import that took ``import_wall``
    seconds in wall-clock and in reference seconds, scaled by kernel
    samples taken right after it (numpy is loaded by then)."""
    from speed import REF_S, Speed

    speed = Speed()
    speed.sample(SPEED_SAMPLES)
    return speed, {"import_s": import_wall * REF_S / speed.median(), "import_wall_s": import_wall}


def start_up(fq, import_wall: float, args, workdir: Path):
    """Set up after an import that took ``import_wall`` seconds; both timed
    in wall-clock and in reference seconds.  Returns the ``Speed`` sampler,
    the set-up's results and the timings."""
    from speed import REF_S

    speed, times = timed_import(import_wall)
    t0 = time.perf_counter()
    ready = set_up(fq, args, workdir)
    setup_wall = time.perf_counter() - t0
    speed.sample(SPEED_SAMPLES)
    times["setup_s"] = setup_wall * REF_S / speed.median()
    times["setup_wall_s"] = setup_wall
    return speed, ready, times


def probe(fq, import_wall: float, args) -> None:
    """Child process: report import (and set-up) times as one JSON line."""
    if args.probe == "import":
        print(json.dumps(timed_import(import_wall)[1]))
        return
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        *_, times = start_up(fq, import_wall, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(times))


class Probes:
    """Import and set-up samples from fresh processes, taken one at a time
    between rounds so that they spread over the run."""

    def __init__(self, args, setups: int, imports: int) -> None:
        self.cmd = [sys.executable, str(HERE / "run.py"),
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        if args.smoke:
            self.cmd.append("--smoke")
        self.plan = ["import"] * imports  # set-up probes spread among them
        for i in range(setups):
            self.plan.insert(i * (setups + imports) // setups, "setup")
        self.samples: list[dict] = []

    def take_one(self) -> None:
        if len(self.samples) >= len(self.plan):
            return
        kind = self.plan[len(self.samples)]
        done = subprocess.run(self.cmd + ["--probe", kind], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"probe process failed:\n{done.stderr[-2000:]}")
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def finish(self) -> None:
        while len(self.samples) < len(self.plan):
            self.take_one()


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


def run_one(op, tracer, op_id: int):
    """Time one operation, then check it.  Returns (seconds, Outcome)."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        result = op.run() if tracer is None else tracer.run_op(op_id, op.run)
        exc = None
    except Exception as e:  # the program's failure is the op's outcome
        result, exc = None, e
    elapsed = time.perf_counter() - t0
    try:
        outcome = op.judge(result, exc)
    except Exception as e:  # an output shape the checks cannot read
        outcome = Outcome("failed", f"check:{type(e).__name__}:{e}")
    return elapsed, outcome


class Phase:
    """Operations of one measured phase."""

    def __init__(self) -> None:
        self.elapsed = 0.0  # operation time so far, reference seconds, estimated
        self.start: list[float] = []
        self.latency: list[float] = []
        self.ref: list[float] = []  # latency in reference seconds
        self.outcomes: list = []
        self.busy = 0.0
        self.rounds = 0

    @property
    def ok(self) -> int:
        return sum(o.status == "ok" for o in self.outcomes)

    @property
    def edges(self) -> int:
        return sum(o.edges for o in self.outcomes if o.status == "ok")

    def to_reference(self, speed) -> None:
        self.ref = [speed.ref(t, dt) for t, dt in zip(self.start, self.latency)]

    @property
    def ref_busy(self) -> float:
        return sum(self.ref)


def run_phase(wl, rng, first, seconds: float, smoke: bool, r0: int, speed,
              tracer=None, between=None) -> Phase:
    """Whole rounds until ``seconds`` of op time, in reference seconds, are
    spent: a phase holds the same operations whatever the machine's state.

    Round inputs are generated between rounds, outside the op timers, where
    ``between()`` also runs; a wall-clock guard stops a pathologically slow
    run mid-round.  ``speed`` samples the machine between operations and
    once after the last; latencies are then converted to reference seconds.
    """
    phase = Phase()
    deadline = time.monotonic() + 2.5 * seconds + 30
    ops, r = first, r0
    while phase.elapsed < seconds and time.monotonic() < deadline:
        if ops is None:
            ops = wl.make_round(rng, r, smoke)
        for op in ops:
            if time.monotonic() >= deadline:
                break
            speed.maybe()
            phase.start.append(time.perf_counter())
            elapsed, outcome = run_one(op, tracer, len(phase.latency))
            phase.latency.append(elapsed)
            phase.outcomes.append(outcome)
            phase.busy += elapsed
            phase.elapsed += speed.recent(elapsed)
        ops, r = None, r + 1
        phase.rounds += 1
        gc.collect()  # garbage of one round does not raise the next round's peak
        if between is not None:
            between()
    speed.sample()
    phase.to_reference(speed)
    return phase


# ---------------------------------------------------------------------------
# metrics and records
# ---------------------------------------------------------------------------


def tail_latency(xs: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with TAIL_BEYOND samples
    above it: the (TAIL_BEYOND+1)-th largest sample.  With too few samples,
    the largest one."""
    ys = sorted(xs)
    n = len(ys)
    if n <= TAIL_BEYOND:
        return 100.0, ys[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ys[n - TAIL_BEYOND - 1]


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "formuniq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed,
        "warm_seed": warm_seed(args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
    }


def outcome_lines(phases: list[Phase]) -> list[str]:
    outcomes = [o for p in phases for o in p.outcomes]
    n = len(outcomes)
    known = Counter(o.label for o in outcomes if o.status == "known")
    failed = Counter(o.label for o in outcomes if o.status == "failed")
    errors = n - sum(o.status == "ok" for o in outcomes)
    return [
        f"# checks: {n} ops, {n - errors} ok, {sum(known.values())} known defects, "
        f"{sum(failed.values())} failed",
        f"# error_rate {errors / max(n, 1):.6f} ({errors}/{n}: exceptions, exit codes "
        "outside 0/3 and failed checks, known defects included)",
        f"# known defects by class: {json.dumps(dict(sorted(known.items())))}",
        f"# failed by class: {json.dumps(dict(sorted(failed.items())))}",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "formuniq" / "__init__.py").is_file():
        fail(f"no formuniq package under {SRC}; run from the root of a checkout")
    # the first import of numpy is part of import_s: formuniq first
    fq, import_wall = import_formuniq()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.probe:
        probe(fq, import_wall, args)
        return 0
    workdir = OUT / f"run-{os.getpid()}"
    try:
        speed, (wl, rng, first), times = start_up(fq, import_wall, args, workdir)
        env = environment(args)
        if args.trace:
            from tracing import Tracer, per_layer

            half = args.seconds / 2
            plain = run_phase(wl, rng, first, half, args.smoke, 0, speed)
            tracer = Tracer()
            tracer.install(fq)
            traced = run_phase(wl, rng, None, half, args.smoke, plain.rounds, speed, tracer)
            phases = [plain, traced]
            layers = per_layer(tracer, len(traced.latency))
            plain_rate = plain.ok / plain.ref_busy
            traced_rate = traced.ok / traced.ref_busy
            layers["trace.overhead"] = (plain_rate / traced_rate if traced_rate else 0.0, "ratio")
            layers["edges_per_s"] = (plain.edges / plain.ref_busy, "1/s")
            OUT.mkdir(exist_ok=True)
            tracer.dump(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
            metrics = layers
            notes = [f"# traced phase: {len(traced.latency)} ops, {traced.busy:.3f} s op time; "
                     f"untraced phase: {len(plain.latency)} ops, {plain.busy:.3f} s"]
        else:
            from speed import REF_S

            probes = Probes(args, 1, 1) if args.smoke else Probes(args, SETUP_PROBES,
                                                                   IMPORT_PROBES)
            phase = run_phase(wl, rng, first, args.seconds, args.smoke, 0, speed,
                              between=probes.take_one)
            probes.finish()
            phases = [phase]
            samples = probes.samples + [times]
            q, tail = tail_latency(phase.ref)
            n = len(phase.latency)
            metrics = {
                "setup_s": statistics.median(p["setup_s"] for p in samples if "setup_s" in p),
                "import_s": statistics.median(p["import_s"] for p in samples),
                "ops_per_s": phase.ok / phase.ref_busy,
                "latency_p50_ms": 1000 * statistics.median(phase.ref),
                "latency_tail_ms": 1000 * tail,
                "success_rate": phase.ok / n,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
            wall = {
                "setup_s": statistics.median(
                    p["setup_wall_s"] for p in samples if "setup_s" in p),
                "import_s": statistics.median(p["import_wall_s"] for p in samples),
                "ops_per_s": phase.ok / phase.busy,
                "latency_p50_ms": 1000 * statistics.median(phase.latency),
                "latency_tail_ms": 1000 * tail_latency(phase.latency)[1],
                "kernel_ms": 1000 * speed.median(),
            }
            notes = [
                f"# latency_tail_ms is p{q:.2f} of {n} ops ({min(n - 1, TAIL_BEYOND)} beyond)",
                f"# {phase.rounds} rounds, {phase.busy:.3f} s op time, {phase.edges} edges "
                f"in successful ops ({phase.edges / phase.ref_busy:.1f} edges/s)",
                f"# times are in reference seconds; calibration kernel median "
                f"{1000 * speed.median():.3f} ms over {len(speed.took)} samples "
                f"(reference {1000 * REF_S:.3f} ms)",
                f"# wall clock {json.dumps(wall)}",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for p in phases for o in p.outcomes]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for line in notes + outcome_lines(phases):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    result = {
        "correct": not any(o.label.startswith(("wrong:", "check:")) for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status == "failed" for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
