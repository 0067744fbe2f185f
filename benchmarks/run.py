"""spikelab benchmark: one workload per process, timed, checked, every metric by name.

Run from the repository root:

    python3 benchmarks/run.py --workload estimation-table --seed 1 --seconds 25 --trace 0

Workloads (see README.md): estimation-table, strip-pricing, estimate-cli.
The package is imported from this checkout's ``src``; the seed only builds
the workload's inputs.  After set-up and one warm-up call the workload's unit
of work repeats for ``--seconds`` (at least three times) and ``wall_s`` is
the median repeat.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates untraced and traced repeats and reports per-layer
metrics from spans recorded around each layer call (spans.py).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  A
failed correctness gate exits 1.  ``--smoke`` runs each step once at small
sizes (the benchmark's own test uses it).

Details of every run, the environment included, go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``; traced spans go to
``.bench_out/<workload>-seed<seed>-spans.csv``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("estimation-table", "strip-pricing", "estimate-cli")
# BLAS/OpenMP pools pinned to one thread before numpy loads; SPIKELAB_THREADS
# is only recorded, because the workloads pass workers=1 explicitly
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
RECORDED_VARS = THREAD_VARS + ("SPIKELAB_THREADS",)
MIN_REPEATS = 3
MIN_TRACED_PAIRS = 2
# scipy's import dominates set-up and varies by a fifth between cold
# processes, so set-up is timed in several fresh processes and the median kept
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, every step once")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import spikelab from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import spikelab
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import spikelab from {SRC}: {exc}")
    if Path(spikelab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"benchmark: spikelab imported from {spikelab.__file__}, not from {SRC}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, inherited: dict) -> dict:
    import numpy
    import scipy
    import spikelab

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spikelab": spikelab.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "thread_env_inherited": inherited,
        "thread_env": {name: os.environ.get(name) for name in RECORDED_VARS},
    }


def setup_times(args, tally) -> list:
    """Wall times of complete set-ups (interpreter, imports, inputs) in fresh processes.

    Each set-up process counts as an attempted operation; the first failure stops.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES):
        tally.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.fail(f"set-up process exceeded {SETUP_TIMEOUT_S} s")
            break
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            tally.fail(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
            break
        times.append(elapsed)
    return times


class Tally:
    """Attempts of one workload's unit of work: timing, gates, failure tally."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._reference = None

    def attempt(self, fn, checked: bool = True):
        """Run fn once; return its wall time, or None if it raised or failed a gate.

        The first checked output goes through the workload's gates; every
        later one must equal it, since the inputs do not change.
        """
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            output = fn()
        except Exception:
            traceback.print_exc()
            self.fail(f"raised: {traceback.format_exc().splitlines()[-1]}")
            return None
        wall = time.perf_counter() - start
        if checked:
            if self._reference is None:
                self._reference = output
                problems = self.workload.check(output)
                if problems:
                    self.fail("; ".join(problems))
                    return None
            elif output != self._reference:
                self.fail("output differs from the first repeat on identical inputs")
                return None
        return wall

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def timed_repeats(tally, seconds, min_repeats):
    walls = []
    start = time.perf_counter()
    while len(walls) < min_repeats or time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall = tally.attempt(tally.workload.run)
        if wall is None:
            break
        walls.append(wall)
    return walls


def traced_repeats(tally, seconds, min_pairs):
    """Alternate untraced and traced repeats; return both walls and the recorders."""
    import spans

    untraced, traced, recorders = [], [], []
    start = time.perf_counter()
    while len(traced) < min_pairs or (
        time.perf_counter() - start + statistics.median(untraced) + statistics.median(traced) <= seconds
    ):
        wall = tally.attempt(tally.workload.run)
        if wall is None:
            break
        untraced.append(wall)
        with spans.Recorder() as recorder:
            wall = tally.attempt(tally.workload.run)
        if wall is None:
            break
        traced.append(wall)
        recorders.append(recorder)
    return untraced, traced, recorders


def run(args, workdir: str, inherited: dict) -> int:
    import spans
    import workloads

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": environment(args.seed, inherited)}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))

    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    record["inputs_s"] = time.perf_counter() - start
    tally = Tally(workload)
    metrics = {}
    record["setup_samples_s"] = [] if args.trace else setup_times(args, tally)
    seconds = 0.0 if args.smoke else args.seconds
    repeats = 1 if args.smoke else MIN_REPEATS
    if tally.ok and tally.attempt(workload.warm_up, checked=False) is not None:
        if args.trace:
            untraced, traced, recorders = traced_repeats(tally, seconds, 1 if args.smoke else MIN_TRACED_PAIRS)
            record.update(untraced_walls_s=untraced, traced_walls_s=traced)
            if tally.ok:
                summaries = [spans.summarize(r) for r in recorders]
                metrics = spans.layer_metrics(summaries, traced, untraced, workload.items)
                spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.csv"
                with open(spans_path, "w", encoding="utf-8") as handle:
                    handle.write("repeat,id,parent,name,start,end\n")
                    for repeat, recorder in enumerate(recorders):
                        recorder.write_csv(handle, repeat)
                print(f"spans of {len(recorders)} traced repeats written to {spans_path}")
        else:
            walls = timed_repeats(tally, seconds, repeats)
            record["walls_s"] = walls
            if tally.ok:
                wall = statistics.median(walls)
                setup = record["setup_samples_s"]
                metrics = {
                    "wall_s": (wall, "s"),
                    "items_per_s": (workload.items / wall, "items/s"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                    "setup_s": (statistics.median(setup), "s"),
                }
                print(f"# wall_s: median of {len(walls)} repeats of {workload.items} {workload.item}; "
                      f"items_per_s counts {workload.item}; setup_s: median of {len(setup)} fresh processes")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {tally.failed}/{tally.attempted} failed/attempted")
    record.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": tally.ok, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0 if tally.ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited = {name: os.environ.get(name) for name in RECORDED_VARS}
    for name in THREAD_VARS:
        os.environ[name] = "1"
    import_package()
    # imported after import_package(), since it imports spikelab
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
            return 0
        return run(args, workdir, inherited)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
