#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload desk_glyphs --seed 0 --seconds 25 --trace 0

Run from the repository root.  The workload runs in this process with
single-threaded BLAS.  Set-up is repeated and its median reported; then the
workload's fixed unit of work repeats until at least ``--seconds`` of units
have been timed.  Outputs are checked after every unit, outside the timed
region, and once more at the end against the dense oracles.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics
instead, including the tracing overhead.

The second-to-last stdout line is a detail record (environment, per-unit
times, fingerprints, failures); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation and check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
BLAS_THREADS = "1"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cvnnlab.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["desk_glyphs", "dense_teacher", "lab_tools"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_seconds() -> float:
    """Median time for a fresh interpreter to import the package."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def tree_digest(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def openblas(name: str):
    """A ``*_num_threads`` function of the OpenBLAS library numpy loaded."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)
    return None


def blas_threads():
    get = openblas("get_num_threads")
    if get is None:
        return None
    get.restype = ctypes.c_int
    return get()


@contextlib.contextmanager
def all_cores():
    """Let BLAS use every core while the untimed dense-oracle checks run."""
    set_threads = openblas("set_num_threads")
    if set_threads is not None:
        set_threads(ctypes.c_int(len(os.sched_getaffinity(0))))
    try:
        yield
    finally:
        if set_threads is not None:
            set_threads(ctypes.c_int(int(BLAS_THREADS)))


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": tree_digest(SRC / "cvnnlab"),
        "bench_sha256": tree_digest(BENCH),
    }


def compare_store(path: Path, fingerprint: dict, tally) -> None:
    """Fingerprints of the same workload, seed and source tree must repeat
    exactly in every process; the first run records them."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    same = all(stored[k] == v for k, v in fingerprint.items() if k in stored)
    tally.check(same, f"fingerprint differs from an earlier run recorded in {path.name}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**stored, **fingerprint}, sort_keys=True))
    os.replace(tmp, path)


def run_units(wl, tracer, seconds, work, tally):
    """Repeat the unit until ``seconds`` of unit time; in a traced run every
    second unit is traced.  Returns per-kind wall times and the fingerprint."""
    walls = {False: [], True: []}
    reference: dict = {}
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        unit_dir = work / f"unit{i}"
        if traced:
            tracer.run = i
            ctx = contextlib.ExitStack()
            ctx.enter_context(wl.recording(tracer))
            ctx.enter_context(tracer.patched(wl.patches()))
            ctx.enter_context(tracer.span(wl.root_span))
        else:
            ctx = contextlib.nullcontext()
        result = None
        t0 = time.perf_counter()
        try:
            with ctx:
                result = wl.unit(unit_dir)
        except Exception:  # a failed unit is counted, and the loop goes on
            tally.check(False, f"unit {i}: {traceback.format_exc()}", ops=wl.ops_per_unit)
        walls[traced].append(time.perf_counter() - t0)
        if result is not None:
            fp = wl.inspect(result, tally)
            if traced:
                fp.update(wl.counts(tracer, i))
            if i > 0:
                tally.check(
                    all(reference[k] == v for k, v in fp.items() if k in reference),
                    f"unit {i}: outputs or counts differ from the first unit",
                )
            reference = {**fp, **reference}
        shutil.rmtree(work / f"unit{i - 1}", ignore_errors=True)
        i += 1
        done = sum(walls[False]) + sum(walls[True]) >= seconds
        if done and (tracer is None or i >= 2):
            return walls, reference


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvnnlab" / "__init__.py").is_file():
        print(f"error: no cvnnlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    import_s = import_seconds()
    from spans import CoverageError, Tracer
    from workloads import WORKLOADS, Tally

    # fingerprints are comparable only under the same program and workload code
    code_digest = hashlib.sha256(
        (tree_digest(SRC / "cvnnlab") + tree_digest(BENCH)).encode()
    ).hexdigest()
    tally = Tally()
    wl = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    detail: dict = {}
    metrics: dict = {}
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            rep_dir = work / f"setup{rep}"
            t0 = time.perf_counter()
            if tracer:
                tracer.run = -1
            with wl.recording(tracer):
                wl.setup(rep_dir)
            wl.warm_up(rep_dir)
            setup_times.append(time.perf_counter() - t0)
            shutil.rmtree(work / f"setup{rep - 1}", ignore_errors=True)
        setup_s = import_s + statistics.median(setup_times)

        walls, fingerprint = run_units(wl, tracer, args.seconds, work, tally)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            wl.probe_layers(tracer)
        if fingerprint:
            with all_cores():
                wl.final_checks(tally, fingerprint)
            store = WORK / "fingerprints" / f"{args.workload}-s{args.seed}-{code_digest[:16]}.json"
            compare_store(store, fingerprint, tally)
        detail.update(
            import_s=import_s, setup_repeats_s=setup_times, unit_walls_s=walls[False],
            traced_unit_walls_s=walls[True], fingerprint=fingerprint,
        )

        if tracer is None:
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls[False]),
                "peak_rss_mib": peak_rss_mib,
            }
        else:
            try:
                wl.label(tracer)
                tracer.check(wl.expected_spans())
                covered = True
            except CoverageError as exc:
                covered = tally.check(False, f"span coverage: {exc}")
            if covered:
                runs = [i for i in range(len(walls[False]) + len(walls[True])) if i % 2]
                metrics = wl.layer_metrics(tracer, runs)
                metrics["tracing.overhead_s"] = (
                    statistics.median(walls[True]) - statistics.median(walls[False])
                )
                detail["spans"] = len(tracer.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if metrics and args.trace:
        # layers this workload does not exercise spend no time in it
        detail["not_exercised"] = [m["name"] for m in declared if m["name"] not in metrics]
        metrics.update({name: 0.0 for name in detail["not_exercised"]})
    detail["environment"] = environment(args)
    detail["failures"] = tally.reasons
    for why in tally.reasons:
        print(f"FAILED: {why}", file=sys.stderr)
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
