#!/usr/bin/env python3
"""Benchmark of momentlab's batch front door, one workload per process.

    python3 perfbench/run.py --workload collide --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the repository root. The program is imported from ``src/`` of the
checkout, with BLAS pinned to one thread. A run passes the workload's
experiment configs to ``momentlab.runner.run``, pass after pass, for
``--seconds`` seconds. Pass i runs draw i of the configs, whose seeds are
derived from ``--seed`` and i. Every CSV row must pass its workload's output
check, and draw 0, run again at the end, must write byte-identical CSVs.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, with
pass times in units of a reference loop timed between passes.
``--trace 1`` follows each untraced pass with a traced pass of the same draw
and reports the per-layer metrics; see perfbench/README.md. ``--workload all`` runs every
workload in its own process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds what is reported but not measured: the CSV digest, the failed
fraction, the environment and, when traced, the span table.
"""

from __future__ import annotations

import argparse
import contextlib
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

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = BENCH_DIR / "_out"

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is measured in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 5

#: A run makes at least this many passes. Pass i runs draw i of the
#: workload: the work differs from draw to draw, so averaging over as many
#: draws as the time allows keeps the seed's influence small.
MIN_PASSES = 8

# Runs in a fresh interpreter: argv = [src, bench_dir, workload, seed].
_SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
items = workloads.build(sys.argv[3], int(sys.argv[4]))
t0 = time.perf_counter()
from momentlab.config import validate_config
import momentlab.runner
for item in items:
    validate_config(item.config_dict())
print(time.perf_counter() - t0)
"""


def measure_setup(workload: str, seed: int) -> float:
    """Median time to import momentlab and validate the workload's configs."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Workload:
    """Runs a workload's draws, pass by pass, and checks every output."""

    def __init__(self, name: str, seed: int, out: Path):
        self.name, self.seed, self.out = name, seed, out
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, set[str]] = {}      # draw -> CSV sha256 of each of its runs

    def run_pass(self, draw: int) -> tuple[float, float, str]:
        """Run draw ``draw`` of every config once; returns (wall_s, cpu_s, CSV sha256).

        The configs are built and validated first, outside the timed
        interval; under the tracer that records config validation.
        """
        import momentlab.runner
        from momentlab.config import validate_config

        items = workloads.build(self.name, self.seed, draw)
        configs = [validate_config(item.config_dict()) for item in items]
        errors = {}
        c0, t0 = time.process_time(), time.perf_counter()
        for item, config in zip(items, configs):
            try:
                momentlab.runner.run(config, out_dir=self.out / item.name)
            except Exception:       # one failed experiment must not stop the run
                errors[item.name] = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return wall, cpu, self._check(items, errors)

    def _check(self, items, errors: dict[str, str]) -> str:
        digest = hashlib.sha256()
        for item in items:
            out = self.out / item.name
            self.attempted += item.rows
            if item.name in errors:
                print(f"{item.name}: raised\n{errors[item.name]}", file=sys.stderr)
                bad = item.rows
            else:
                try:
                    oks = item.check(out)
                except (OSError, KeyError, ValueError) as e:     # missing or malformed output
                    print(f"{item.name}: unreadable output: {e!r}", file=sys.stderr)
                    oks = []
                bad = item.rows if len(oks) != item.rows else oks.count(False)
                for csv_path in sorted(out.glob("*.csv")):
                    digest.update(f"{item.name}/{csv_path.name}\n".encode())
                    digest.update(csv_path.read_bytes())
            if bad:
                print(f"{item.name}: {bad} of {item.rows} rows failed", file=sys.stderr)
            self.failed += bad
            shutil.rmtree(out, ignore_errors=True)
        return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload_seed": seed,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


class ReferenceLoop:
    """Fixed numpy work, independent of momentlab, that gauges the host's speed.

    On a shared VM the host's speed drifts by tens of percent within
    minutes, and CPU time drifts with it. Timing this loop between passes
    and dividing each pass by it cancels that drift. The loop mixes what the
    workloads spend their time on: many small least-squares solves and
    matrix products called from Python, and a few passes over 6 MB.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.A = np.vstack([rng.normal(size=(8, 4)), 1e-3 * np.eye(4)])
        self.b = np.concatenate([rng.normal(size=8), np.zeros(4)])
        self.M = rng.normal(size=(10, 10))
        self.big = rng.normal(size=(50_000, 16))

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(1000):
            x = np.linalg.lstsq(self.A, self.b, rcond=None)[0]
            y = self.M @ np.concatenate([x, x, x[:2]])
            float(y @ y)
        for _ in range(5):
            float((self.big.T @ self.big).trace())
        return time.perf_counter() - t0


def timed_run(wl: Workload, seconds: int) -> dict:
    """Untraced passes for ``seconds`` seconds; returns the end-to-end metrics."""
    reference = ReferenceLoop()
    refs = [reference()]
    walls, cpus, ratios = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < workloads.MAX_DRAWS and (
        len(walls) < MIN_PASSES or time.perf_counter() < deadline
    ):
        wall, cpu, digest = wl.run_pass(draw=len(walls))
        refs.append(reference())
        ref = (refs[-2] + refs[-1]) / 2
        walls.append(wall)
        cpus.append(cpu)
        ratios.append((wall / ref, cpu / ref))
        wl.digests[len(walls) - 1] = {digest}
    wl.digests[0].add(wl.run_pass(draw=0)[2])             # untimed rerun
    return {
        "wall_ref": statistics.fmean(w for w, _ in ratios),
        "cpu_ref": statistics.fmean(c for _, c in ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "reference_s": statistics.median(refs),
        "passes": len(walls),
    }


def traced_run(wl: Workload, seconds: int) -> dict:
    """Pairs of untraced and traced passes; returns the per-layer metrics."""
    from tracer import Tracer

    pairs = []                                              # (untraced wall_s, traced wall_s, Tracer)
    deadline = time.perf_counter() + seconds
    while len(pairs) < workloads.MAX_DRAWS and (
        len(pairs) < MIN_PASSES or time.perf_counter() < deadline
    ):
        draw = len(pairs)
        wall, _, digest = wl.run_pass(draw)
        with Tracer() as tr:
            traced_wall, _, traced_digest = wl.run_pass(draw)
        pairs.append((wall, traced_wall, tr))
        wl.digests[draw] = {digest, traced_digest}
    runs = [tr.metrics() for *_, tr in pairs]
    values = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    values["trace.overhead_s"] = statistics.median(t - w for w, t, _ in pairs)
    values["passes"] = len(pairs)
    values["solves_equal_restarts"] = all(
        tr.counts["gaussnewton.solves"] == tr.restarts_used() for *_, tr in pairs
    )
    values["spans"] = pairs[-1][-1].span_table()
    return values


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run; returns (result, info) as printed on the last two lines."""
    import momentlab

    if Path(momentlab.__file__).resolve().parent != SRC / "momentlab":
        raise RuntimeError(f"imported momentlab from {momentlab.__file__}, not from {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if trace else "end_to_end"]
    out = OUT_ROOT / f"{workload}-{os.getpid()}"
    wl = Workload(workload, seed, out)
    try:
        if trace:
            values = traced_run(wl, seconds)
        else:
            values = {"setup_s": measure_setup(workload, seed), **timed_run(wl, seconds)}
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()                                # unless another run still uses it

    names = {m["name"] for m in group}
    info = {k: v for k, v in values.items() if k not in names}
    deterministic = all(len(d) == 1 for d in wl.digests.values())
    info.update(
        workload=workload,
        csv_sha256=min(wl.digests[0]),
        deterministic=deterministic,
        failed_frac=wl.failed / wl.attempted,
        environment=environment(seed),
    )
    result = {
        "correct": wl.failed == 0 and deterministic and info.get("solves_equal_restarts", True),
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }
    return result, info


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Run every workload in its own process and print one table."""
    if not trace:
        print(
            f"{'workload':<10} {'setup_s':>8} {'wall_s':>8} {'cpu_s':>8} {'wall_ref':>9} "
            f"{'peak_rss_mb':>11} {'failed_frac':>11}  csv_sha256"
        )
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<10} failed with exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        status |= not result["correct"]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if trace:
            print(f"{name}: {json.dumps(m)}")
            continue
        print(
            f"{name:<10} {m['setup_s']:>8.3f} {info['wall_s']:>8.3f} {info['cpu_s']:>8.3f} "
            f"{m['wall_ref']:>9.3f} {m['peak_rss_mb']:>11.1f} {info['failed_frac']:>11.3g}  "
            f"{info['csv_sha256'][:16]}"
        )
    if not trace:
        print(
            "units: setup_s, wall_s (median pass) and cpu_s in s; wall_ref in reference "
            "loops; peak_rss_mb in MiB; failed_frac is a fraction"
        )
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "momentlab" / "__init__.py").is_file():
        print(f"momentlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    for var in _BLAS_THREAD_VARS:       # before numpy loads; set-up children inherit it
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    result, info = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
