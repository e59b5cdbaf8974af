"""One benchmark sample: a single ``run_experiment`` call in its own process.

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1 \
        --work-dir DIR [--spans FILE] [--setup-only]

Prints one JSON object: the phase times, the peak RSS of this process, the
values the golden gate compared and its mismatches, and with ``--trace 1``
the per-layer metrics.  ``--setup-only`` makes a partial sample of the same
call with ``t_final = 0`` and without outputs: the call returns where time
stepping would start, its duration is ``setup_s`` and there is nothing to
gate.  Exit code 3 means the harness itself failed (a missing wrap target or
layer); any other failure of the run exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
HARNESS_FAILURE = 3


def load_haarsg():
    """Import haarsg from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import haarsg
    if not Path(haarsg.__file__).resolve().is_relative_to(src):
        raise tracer.HarnessError(f"haarsg imported from {haarsg.__file__}, not from {src}")


def updates(result) -> int:
    """Cell-mode updates of the Galerkin solve: steps x cells x components x (K+1)."""
    grid = result.grid
    cells = grid.nx * (grid.ny or 1)
    return result.steps * cells * result.field.data.shape[-2] * result.tensors.size


def run(args) -> dict:
    load_haarsg()
    from haarsg.config import parse_config
    from haarsg.experiments import run_experiment

    workload = workloads.WORKLOADS[args.workload]
    config = parse_config(workload.config.format(seed=args.seed))
    if args.setup_only:
        began = perf_counter()
        run_experiment(replace(config, t_final=0.0), threads=1, write_outputs=False)
        return {"setup_s": perf_counter() - began, "mismatches": []}
    # untraced samples check the layer targets too, so that every run fails
    # loudly when one is gone
    tracer.resolve_all(tracer.LAYER_TARGETS)
    trace = tracer.Tracer()
    targets = tracer.PHASE_TARGETS + (tracer.LAYER_TARGETS if args.trace else ())
    with tempfile.TemporaryDirectory(dir=args.work_dir) as out_dir:
        with trace.installed(targets):
            result = trace.record("experiments.run_experiment", run_experiment, (config,),
                                  {"threads": 1, "out_dir": out_dir})
        output_bytes = sum(os.path.getsize(p) for p in result.artifacts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    observed = workloads.observe(result)
    record = {
        **tracer.phases(trace.spans),
        "updates": updates(result),
        "peak_rss_mb": peak_rss_mb,
        "observed": observed,
        "mismatches": workloads.check(args.workload, args.seed, observed),
    }
    failed = getattr(result.reference, "failed", None)
    record["mc_failed"] = int(failed or 0)
    record["mc_attempted"] = config.ref_samples if failed is not None else 0
    if args.trace:
        called = {span[0] for span in trace.spans}
        missing = sorted(set(workloads.COMMON_SPANS + workload.spans) - called)
        if missing:
            raise tracer.HarnessError("layers never called: " + ", ".join(missing))
        layers = tracer.layer_metrics(trace.spans)
        layers["output.bytes"] = output_bytes
        layers["reference.mc_failed"] = record["mc_failed"]
        record["layers"] = layers
        if args.spans:
            trace.write(args.spans, {"workload": args.workload, "seed": args.seed})
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except tracer.HarnessError as exc:
        print(exc, file=sys.stderr)
        return HARNESS_FAILURE
    except Exception:  # a failed run is counted by the caller, not fatal here
        traceback.print_exc()
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
