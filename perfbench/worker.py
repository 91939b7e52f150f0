"""One workload in a fresh interpreter: timed rounds, optional traced rounds, checks.

Usage: worker.py WORKLOAD SEED SECONDS TRACE CONFIG_DIR SPAN_FILE

Runs whole rounds of the workload's CLI commands in-process through
dotesd.cli.main until the next round would overrun SECONDS (at least one
round). With TRACE=1 the time is split between untraced and traced rounds.
Peak RSS is read before any check runs. Prints one JSON object.
"""

from __future__ import annotations

import io
import json
from importlib import metadata
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


def run_round(cli, workload) -> tuple[list[float], list]:
    times, outputs = [], []
    for command in workload.commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        code = cli.main(list(command.argv), out, err)
        times.append(time.perf_counter() - t0)
        outputs.append(workloads.Output(code, out.getvalue(), err.getvalue()))
    return times, outputs


def run_rounds(cli, workload, budget_s: float, on_round=None) -> list:
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, workload))
        if on_round is not None:
            on_round()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > budget_s:
            return rounds


def _rows(text: str) -> int:
    return max(0, text.count("\n") - 1)


def layer_metrics(spans: list, rows: int) -> dict[str, float]:
    """Per-layer totals of one round's spans; parent indices index `spans`."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    total, self_s, calls, work = {}, {}, {}, {}
    for i, (name, _, _, _, counts) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in counts.items():
            work[key] = work.get(key, 0) + value
    inits = calls.get("boxmodel.channel_init", 0)
    eval_s = total.get("boxmodel.grid_eval", 0.0) + total.get("boxmodel.point_eval", 0.0)
    factor_s = total.get("dephasing.factor", 0.0)
    fields = calls.get("experiments.tsd_search", 0)  # one search per sweep record
    return {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.rows": rows,
        "config.load_s": total.get("config.load", 0.0),
        "material.couplings_s": total.get("material.couplings", 0.0),
        "material.couplings": work.get("couplings", 0),
        "material.distinct_couplings": work.get("distinct", 0),
        "boxmodel.sector_weights_s": total.get("boxmodel.sector_weights", 0.0),
        "boxmodel.sector_weights_calls": calls.get("boxmodel.sector_weights", 0),
        "boxmodel.channel_init_s": total.get("boxmodel.channel_init", 0.0),
        "boxmodel.channel_inits": inits,
        "boxmodel.blocks": work.get("blocks", 0) / inits if inits else 0,
        "boxmodel.grid_eval_s": total.get("boxmodel.grid_eval", 0.0),
        "boxmodel.grid_evals": calls.get("boxmodel.grid_eval", 0),
        "boxmodel.block_times": work.get("block_times", 0),
        "boxmodel.block_times_per_s": work.get("block_times", 0) / eval_s if eval_s else 0.0,
        "boxmodel.point_eval_s": total.get("boxmodel.point_eval", 0.0),
        "boxmodel.point_evals": calls.get("boxmodel.point_eval", 0),
        "entanglement.closed_form_s": total.get("entanglement.closed_form", 0.0),
        "entanglement.closed_form_calls": calls.get("entanglement.closed_form", 0),
        "experiments.sweep_s": total.get("experiments.sweep", 0.0),
        "experiments.tsd_search_self_s": self_s.get("experiments.tsd_search", 0.0),
        "experiments.point_evals_per_field": (
            calls.get("boxmodel.point_eval", 0) / fields if fields else 0.0
        ),
        "dephasing.factor_s": factor_s,
        "dephasing.coupling_times": work.get("coupling_times", 0),
        "dephasing.coupling_times_per_s": (
            work.get("coupling_times", 0) / factor_s if factor_s else 0.0
        ),
        "dephasing.fit_s": total.get("dephasing.fit", 0.0),
    }


def traced_run(cli, workload, seconds: float):
    """Untraced rounds, then traced rounds, for half of SECONDS each.

    Returns all rounds (untraced first), each traced round's spans, the
    median per-layer metrics over the traced rounds, and the absent wrap
    targets.
    """
    rounds = run_rounds(cli, workload, seconds / 2)
    untraced_s = statistics.median(sum(t) for t, _ in rounds)
    tracer = Tracer()
    tracer.install()
    round_spans: list[list] = []
    try:
        traced = run_rounds(
            cli, workload, seconds / 2, on_round=lambda: round_spans.append(tracer.take_spans())
        )
    finally:
        tracer.uninstall()
    per_round = []
    for (times, outputs), spans in zip(traced, round_spans):
        metrics = layer_metrics(spans, sum(_rows(o.out) for o in outputs))
        metrics["trace.overhead_s"] = sum(times) - untraced_s
        per_round.append(metrics)
    layers = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    layers["trace.absent_targets"] = len(tracer.absent)
    return rounds + traced, round_spans, layers, tracer.absent


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, config_dir, span_file = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    workload = workloads.build(name, seed, Path(config_dir))
    import dotesd.cli as cli

    result: dict = {}
    if trace:
        rounds, round_spans, layers, absent = traced_run(cli, workload, seconds)
        result["layers"] = layers
        result["absent"] = absent
        Path(span_file).write_text(json.dumps({"absent": absent, "rounds": round_spans}))
    else:
        rounds = run_rounds(cli, workload, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["round_s"] = [sum(t) for t, _ in rounds]
        result["records_per_s"] = [
            sum(_rows(o.out) for o, c in zip(outputs, workload.commands) if c.rate)
            / sum(t for t, c in zip(times, workload.commands) if c.rate)
            for times, outputs in rounds
        ]

    attempted = failed = 0
    problems: list[str] = []
    for _, outputs in rounds:
        tally = workload.check(outputs)
        attempted += tally.attempted
        failed += tally.failed
        problems += tally.problems
    result.update(
        rounds=len(rounds),
        attempted=attempted,
        failed=failed,
        problems=sorted(set(problems)),
        provenance={
            "python": sys.version.split()[0],
            # Read without importing, so the worker loads only what dotesd does.
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "blas_threads": {
                k: os.environ.get(k, "unset")
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
