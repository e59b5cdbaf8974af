"""haarsg benchmark: run_experiment workloads, timed end to end and traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]

Runs samples of one workload (or of every workload, in turn) for about S
seconds, each sample a ``run_experiment`` call in its own process
(``sample.py``), one at a time.  With ``--trace 0`` every sample is
untraced and the end-to-end metrics are reported; with ``--trace 1``
untraced and traced samples alternate and the per-layer metrics are
reported, ``trace.overhead_frac`` comparing the two kinds.  A full sample's
outputs go through the golden gate; a mismatch or a crash counts as a
failed run.

Prints the environment, one line per metric (median, worst-side percentile
with at least ten samples beyond it, sample count) and, last, one JSON
object {"correct", "attempted", "failed", "metrics"}.  Exit code 0 when
every run passed the golden gate, 1 when not, 2 without the haarsg source
beside the benchmark, 3 when the harness cannot measure a layer.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_SAMPLES = 2
SAMPLE_TIMEOUT_S = 150
HARNESS_FAILURE = 3


class HarnessFailure(Exception):
    pass


def environment(seed: int) -> dict:
    import numpy as np
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": numba_imports,
        "seed": seed,
    }


def run_sample(workload: str, seed: int, traced: bool = False,
               setup_only: bool = False) -> dict | None:
    """One sample in a fresh process; None when the run failed."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work-dir", str(OUT)]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {SAMPLE_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode == HARNESS_FAILURE:
        raise HarnessFailure(proc.stderr.strip())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(record: dict) -> dict:
    """The end-to-end metrics a full or set-up-only sample measured."""
    values = {name: record[name] for name in
              ("run_s", "setup_s", "solve_s", "reference_s", "peak_rss_mb") if name in record}
    if "solve_s" in record:
        values["sg_updates_per_s"] = record["updates"] / record["solve_s"]
    return values


def worst_percentile(values: list, better: str):
    """(label, value) of the highest percentile on the worse side that has at
    least ten samples beyond it, or None with fewer than 20 samples."""
    n = len(values)
    ordered = sorted(values, reverse=(better == "higher"))
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            label = p if better == "lower" else 100 - p
            return f"p{label}", ordered[math.ceil(p * n / 100) - 1]
    return None


class Tally:
    """What the samples of one workload run measured, and how many failed."""

    def __init__(self):
        self.samples, self.full, self.layers = {}, {}, {}
        self.traced_run_s, self.mismatches = [], []
        self.attempted = self.failed = self.failed_runs = 0

    def add(self, record: dict | None, kind: str) -> None:
        """``kind`` is "full", "traced" or "setup"."""
        self.attempted += 1
        if record is not None:
            self.attempted += record.get("mc_attempted", 0)
            self.failed += record.get("mc_failed", 0)
        if record is None or record["mismatches"]:
            self.failed += 1
            self.failed_runs += 1
            self.mismatches += record["mismatches"] if record else []
        elif kind == "traced":
            self.traced_run_s.append(record["run_s"])
            for name, value in record["layers"].items():
                self.layers.setdefault(name, []).append(value)
        else:
            for name, value in end_to_end(record).items():
                self.samples.setdefault(name, []).append(value)
                if kind == "full":
                    self.full.setdefault(name, []).append(value)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Tally:
    """Samples of one workload for about ``seconds``.

    An untraced run makes a full sample, then set-up-only samples as long
    as a second full sample still fits, then that second full sample.  So
    set-up, a few milliseconds on two workloads, is measured many times, in
    fresh processes, while the phases that follow it are measured at the
    start and at the end of the run.  A traced run makes full samples only,
    untraced and traced in turn, at least MIN_SAMPLES and as many as fit.
    """
    tally = Tally()
    end = perf_counter() + seconds

    def sample(kind: str) -> tuple[dict | None, float]:
        began = perf_counter()
        record = run_sample(workload, seed, traced=kind == "traced",
                            setup_only=kind == "setup")
        tally.add(record, kind)
        return record, perf_counter() - began

    if trace:
        kinds = itertools.cycle(("full", "traced"))
        count = 0
        while True:
            _, took = sample(next(kinds))
            count += 1
            if count >= MIN_SAMPLES and perf_counter() + took > end:
                return tally
    first, full_took = sample("full")
    if first is not None:
        # a set-up-only sample costs about the full one without its later phases
        cost = full_took - first["run_s"] + first["setup_s"]
        while perf_counter() + cost + full_took <= end:
            _, cost = sample("setup")
    sample("full")
    return tally


def report(workload: str, seed: int, tally: Tally, trace: bool) -> dict:
    """Print one line per metric; return the metrics of the JSON line."""
    declared = SPEC["per_layer" if trace else "end_to_end"]
    samples = tally.samples
    if trace:
        samples = dict(tally.layers)
        if tally.traced_run_s and tally.samples:
            samples["trace.overhead_frac"] = [median(tally.traced_run_s)
                                              / median(tally.samples["run_s"]) - 1.0]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"failed {tally.failed}/{tally.attempted} "
          f"(failed_frac {tally.failed / tally.attempted:.6g})")
    for line in tally.mismatches:
        print(f"  golden mismatch: {line}")
    if not trace:
        for name in ("run_s", "setup_s", "solve_s"):
            print(f"  {name} per sample: " + " ".join(f"{v:.4g}" for v in samples.get(name, ())))
        print("  full samples only: " + " ".join(f"{name} {median(values):.6g}"
                                                 for name, values in tally.full.items()))
    metrics = {}
    for spec in declared:
        values = samples.get(spec["name"])
        if not values:
            continue
        value = median(values)
        tail = worst_percentile(values, spec["better"])
        tail_text = f"{tail[0]} {tail[1]:.6g}" if tail else "p- (n<20)"
        print(f"  {spec['name']:<30} {value:<14.6g} {tail_text:<16} n={len(values):<4}"
              f" {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "haarsg" / "__init__.py").is_file():
        print(f"no haarsg source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print("env " + json.dumps(environment(args.seed)))
    trace = bool(args.trace)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in (names if args.workload == "all" else [args.workload]):
        try:
            tally = measure(workload, args.seed, args.seconds, trace)
        except HarnessFailure as exc:
            print(f"harness failure: {exc}", file=sys.stderr)
            return HARNESS_FAILURE
        found = report(workload, args.seed, tally, trace)
        expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        correct &= tally.failed_runs == 0 and set(found) == expected
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
