"""Layered benchmark for waveq: one workload per call, metrics as JSON.

    python3 bench/run.py --workload {words,deformed,grids,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; waveq is imported from its src/.  Each
workload runs in its own single-threaded child process (bench/workloads.py)
with numpy's thread pools fixed at one thread, as a closed loop with one
caller.  Only one child runs at a time.

--trace 0 prints the end-to-end metrics (throughput, p50/p90 latency, peak
RSS and set-up time, the median of SETUPS separate set-ups); --trace 1
runs the same loop with every public waveq callable wrapped and prints the
per-layer metrics per operation.  Either way the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  See
bench/README.md for the workloads, the oracles and reference numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
# the whole command must end within 180 s, set-ups and checks included
DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "laurent.calls": "calls/op",
    "laurent.self_ms": "ms/op",
    "laurent.term_pairs": "pairs/op",
    "laurent.terms_out": "terms/op",
    "opalgebra.calls": "calls/op",
    "opalgebra.self_ms": "ms/op",
    "opalgebra.term_pairs": "pairs/op",
    "opalgebra.terms_out": "terms/op",
    "opalgebra.merge_ratio": "ratio",
    "opalgebra.peak_terms": "terms",
    "gridfn.calls": "calls/op",
    "gridfn.self_ms": "ms/op",
    "gridfn.point_evals": "evals/op",
    "gridfn.ns_per_point_eval": "ns",
    "qdeform.calls": "calls/op",
    "qdeform.self_ms": "ms/op",
    "scaling.calls": "calls/op",
    "scaling.self_ms": "ms/op",
    "spectra.calls": "calls/op",
    "spectra.self_ms": "ms/op",
    "funceq.calls": "calls/op",
    "funceq.self_ms": "ms/op",
    "funceq.linalg_ms": "ms/op",
    "cli.calls": "calls/op",
    "cli.self_ms": "ms/op",
    "cli.bytes_written": "bytes/op",
}
WORKLOADS = ("words", "deformed", "grids", "cli")


class BenchError(RuntimeError):
    pass


def _child(args, extra: list[str], deadline: float) -> dict:
    """Run one workload process to completion and return its JSON line."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen([*cmd, "--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process still running {DEADLINE_S:.0f} s after the start")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def _report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:28s} {value:14.6g} {unit:9s}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="minimal input sizes (for the self-test; not a measurement)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "waveq" / "__init__.py").is_file():
        print(f"error: no waveq sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    extra = ["--tiny"] if args.tiny else []
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_child(args, [*extra, "--setup-only"], deadline)["setup_s"])
        res = _child(args, extra, deadline)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations attempted, "
          f"{failed} failed, {len(res['errors'])} check failures")
    if args.trace:
        print(f"traced throughput {res['throughput_ops_s']:.6g} ops/s; {res['spans']} spans in "
              f"{res['span_file']}")
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        res["setup_s"] = statistics.median([*setups, res["setup_s"]])
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    notes = {
        "latency_p90_ms": f" ({attempted} samples, {attempted - int(0.9 * attempted)} beyond)",
        "setup_s": f" (median of {SETUPS} set-ups)",
    }
    for name, m in metrics.items():
        _report(name, m["value"], m["unit"], "" if args.trace else notes.get(name, ""))
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
