"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload engine-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output matched its check.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("engine-dense", "partition-sparse", "serve-edits")

#: end-to-end metrics every workload reports with tracing off
END_TO_END = (
    ("matches_per_s", "matches/s"),
    ("sim_ms", "ms"),
    ("requests_per_s", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("edit_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _quartiles(values: list[float]) -> list[float]:
    """Min, quartiles and max, for the payload's host-speed record."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return [round(v, 4) for v in ordered]
    return [round(v, 4) for v in (ordered[0], *statistics.quantiles(ordered, n=4),
                                  ordered[-1])]


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common

    unpinned = common.pin_environment()
    import repro  # noqa: F401 - timed as part of set-up

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "engine-dense":
        from perfbench import engine_dense as workload
    elif args.workload == "partition-sparse":
        from perfbench import partition_sparse as workload
    else:
        from perfbench import serve_edits as workload
    imported = time.perf_counter()

    from perfbench.hostclock import HostClock
    from perfbench.layers import PER_LAYER

    clock = HostClock()
    clock.tick()
    import_s = clock.scale(_T_START, imported)
    try:
        out = workload.run(args.seed, args.seconds, bool(args.trace), import_s, clock)
    finally:
        common.stop_workers()
        common.stop_resource_tracker()
    if not args.trace:
        out.metrics["peak_rss_mb"] = (common.peak_rss_mb(), "MB")
        names = [name for name, _ in END_TO_END]
    else:
        names = [name for name, _ in PER_LAYER]
    missing = [n for n in names if n not in out.metrics]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")

    for name in names:
        value, unit = out.metrics[name]
        print(f"{name:34s} {value:>16.6g} {unit}")
    tally = out.tally
    print(f"{'error_rate':34s} {tally.error_rate:>16.6g} share "
          f"({tally.failed}/{tally.attempted} {tally.by_kind})")
    for message in out.mismatches:
        print(f"MISMATCH {message}")
    payload = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": common.host_info(), **common.source_id(ROOT),
        "unpinned_env": unpinned, "error_rate": tally.error_rate,
        "errors": tally.by_kind, "mismatches": out.mismatches, "info": out.info,
        "host_slowness": _quartiles(clock.samples),
    }
    print("payload " + json.dumps(payload, sort_keys=True, default=str))
    correct = not out.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": out.metrics[n][0], "unit": out.metrics[n][1]}
                    for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        sys.exit(1)
