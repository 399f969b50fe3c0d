"""Command-line entry point: ``python -m repro.bench <experiment>``.

Mirrors the paper artifact's run scripts: each sub-command regenerates
one table/figure and prints it.  ``all`` runs the full set.

Examples::

    python -m repro.bench table1
    python -m repro.bench table2a --queries q5 q7 q8 --budget 500000
    python -m repro.bench fig12 --datasets mico
    python -m repro.bench all --budget 200000
    python -m repro.bench fastpath --json BENCH_fastpath.json
    python -m repro.bench parallel --json BENCH_parallel.json
    python -m repro.bench profile --json BENCH_profile.json
    python -m repro.bench chaos --seed-sweep 10
    python -m repro.bench serve --clients 8 --json BENCH_serve.json
    python -m repro.bench dynamic --json BENCH_dynamic.json
    python -m repro.bench scale --json BENCH_scale.json

For ``fastpath``, ``--datasets`` takes ``dataset/query`` pairs (e.g.
``wiki_vote/q1 mico/q4``) and ``--json`` writes the A/B payload that
``scripts/check_bench_regression.py`` consumes.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import experiments

EXPERIMENTS = {
    "table1": lambda a: experiments.table1_datasets(scale=a.scale or "small"),
    "table2a": lambda a: experiments.table2a_edge_induced(
        datasets=a.datasets, queries=a.queries, budget=a.budget, scale=a.scale
    ),
    "table2b": lambda a: experiments.table2b_vertex_induced(
        datasets=a.datasets, queries=a.queries, budget=a.budget, scale=a.scale
    ),
    "table3": lambda a: experiments.table3_labeled(
        datasets=a.datasets, queries=a.queries, budget=a.budget, scale=a.scale
    ),
    "fig11": lambda a: experiments.fig11_multigpu(
        datasets=a.datasets, queries=a.queries, budget=a.budget
    ),
    "fig12": lambda a: experiments.fig12_ablation(
        datasets=a.datasets, queries=a.queries, budget=a.budget
    ),
    "fig13": lambda a: experiments.fig13_unroll_utilization(budget=a.budget),
    "codemotion": lambda a: experiments.codemotion_ablation(
        queries=a.queries, budget=a.budget
    ),
    "fastpath": lambda a: experiments.fastpath_bench(
        workloads=[tuple(w.split("/", 1)) for w in a.datasets]
        if a.datasets else None,
        budget=a.budget,
        scale=a.scale or "small",
    ),
    "parallel": lambda a: experiments.parallel_scaling(
        workloads=[tuple(w.split("/", 1)) for w in a.datasets]
        if a.datasets else None,
        budget=a.budget,
        scale=a.scale or "small",
    ),
    "profile": lambda a: experiments.profile_breakdown(
        dataset=(a.datasets or ["wiki_vote"])[0],
        queries=a.queries,
        scale=a.scale or "tiny",
        budget=a.budget,
    ),
    "chaos": lambda a: experiments.chaos_sweep(
        num_seeds=a.seed_sweep,
        dataset=(a.datasets or ["wiki_vote"])[0],
        query=(a.queries or ["q1"])[0],
        scale=a.scale or "tiny",
        seed_base=a.seed_base,
    ),
    "dynamic": lambda a: experiments.dynamic_bench(
        queries=a.queries,
        seed=a.seed_base,
    ),
    "scale": lambda a: experiments.scale_bench(
        dataset=(a.datasets or ["wiki_vote"])[0],
        query=(a.queries or ["q1"])[0],
        scale=a.scale or "small",
    ),
    "serve": lambda a: experiments.serve_bench(
        clients=a.clients,
        num_requests=a.requests,
        dataset=(a.datasets or ["wiki_vote"])[0],
        scale=a.scale or "tiny",
        seed=a.seed_base,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the STMatch paper's tables and figures.",
    )
    p.add_argument("experiment", choices=[*EXPERIMENTS, "all"],
                   help="which table/figure to regenerate")
    p.add_argument("--datasets", nargs="*", default=None,
                   help="dataset names (default: the experiment's paper set)")
    p.add_argument("--queries", nargs="*", default=None,
                   help="query names q1..q24 (default: the experiment's set)")
    p.add_argument("--budget", type=int, default=500_000,
                   help="per-cell match budget — the timeout stand-in "
                        "(default: 500000)")
    p.add_argument("--scale", default=None,
                   choices=["tiny", "small", "medium"],
                   help="dataset scale override")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the experiment's raw data dict as JSON "
                        "(e.g. BENCH_fastpath.json for the fastpath A/B)")
    p.add_argument("--seed-sweep", type=int, default=3, metavar="N",
                   help="chaos: number of fault-plan seeds to sweep; each "
                        "seed's recovered run must count exactly the "
                        "fault-free matches (default: 3)")
    p.add_argument("--seed-base", type=int, default=0, metavar="S",
                   help="chaos: first seed of the sweep (default: 0)")
    p.add_argument("--clients", type=int, default=8, metavar="N",
                   help="serve: number of concurrent closed-loop clients "
                        "(default: 8)")
    p.add_argument("--requests", type=int, default=64, metavar="N",
                   help="serve: total requests in the load phase "
                        "(default: 64)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.time()
        result = EXPERIMENTS[name](args)
        print(result.rendered)
        print(f"[{name}: {time.time() - t0:.1f}s wall]\n")
        if result.cells and not result.consistent():
            print(f"ERROR: {name}: systems disagree on match counts",
                  file=sys.stderr)
            return 1
        if args.json and len(names) == 1:
            import json

            with open(args.json, "w") as fh:
                json.dump(result.data, fh, indent=2, default=str)
                fh.write("\n")
            print(f"[wrote {args.json}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
