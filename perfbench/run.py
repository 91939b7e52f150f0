"""dotesd benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a dotesd source checkout:

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics: set-up time over fresh
interpreters, then the workload's rounds in a fresh worker interpreter with
tracing off. --trace 1 reports the per-layer metrics of a traced run and the
tracing overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; spans and a copy of the result with
its provenance go to .perfbench_out/. Exits 2 when the checkout holds no
dotesd sources, 1 when the workload cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Metric names and units come from the benchmark definition at the checkout root.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_PROBES = 15  # measured fresh interpreters, after one that fills the bytecode cache
DEADLINE_S = 170.0

# A fresh interpreter imports the CLI and loads and validates the configs.
PROBE = """
import sys, time
t0 = time.perf_counter()
import dotesd.cli
from dotesd.config import load_config
for path in sys.argv[1:]:
    load_config(path).validate()
print(time.perf_counter() - t0)
"""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("DOTESD_WORKERS", None)  # the sweep stays serial, as the CLI defaults
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users import from cached bytecode
    return env


def setup_seconds(paths: list[Path], env: dict[str, str], remaining) -> float:
    samples = []
    for _ in range(1 + SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, *map(str, paths)],
            env=env, capture_output=True, text=True, timeout=remaining(), check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples[1:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - started))

    root = Path.cwd()
    src = root / "src"
    if not (src / "dotesd" / "cli.py").is_file():
        print(f"perfbench: no dotesd sources under {src}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    config_dir = Path(tempfile.mkdtemp(prefix="configs-", dir=out_dir))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = workloads.build(args.workload, args.seed, config_dir)
        paths = workload.write_configs(config_dir)
        env = child_env(src)
        setup_s = None if args.trace else setup_seconds(paths, env, remaining)
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(config_dir),
             str(out_dir / f"spans-{stem}.json")],
            env=env, capture_output=True, text=True,
            timeout=remaining(),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)
    if worker.returncode != 0:
        print(f"perfbench: worker failed\n{worker.stderr}", file=sys.stderr)
        return 1
    res = json.loads(worker.stdout.splitlines()[-1])

    if args.trace:
        values = res["layers"]
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(res["round_s"]),
            "records_per_s": statistics.median(res["records_per_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {res['rounds']} round(s), "
          f"{res['attempted']} operations attempted, {res['failed']} failed")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    if res.get("absent"):
        print(f"  wrap targets absent: {', '.join(res['absent'])}")
    print(f"provenance {json.dumps(res['provenance'])}")
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps(dict(result, provenance=res["provenance"], problems=res["problems"]), indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
