"""Command-line front end: channel, concurrence, sweep and dephasing tables.

Tables are comma-separated with a single header row and all floats printed
with 17 significant digits, so re-parsing loses no precision. Summary
statistics go to stderr to keep stdout machine-consumable. Exit codes:
0 success, also when the reader closes stdout early (``| head``), 1 numeric
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .boxmodel import compute_channel
from .config import ConfigError, RunConfig, default_config, load_config
from .dephasing import dephasing_factor, fit_t2star
from .entanglement import BellLabel
from .experiments import (
    box_equivalent_coupling,
    concurrence_trace,
    sweep_b,
)
from .material import generate_couplings, uniform_couplings


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _write_table(stream, header: list[str], rows) -> None:
    print(",".join(header), file=stream)
    for row in rows:
        print(",".join(_fmt(v) for v in row), file=stream)


def _bell(config: RunConfig, args) -> BellLabel:
    """--bell when given, else the configuration's bell key."""
    label = config.bell if args.bell is None else args.bell
    try:
        return BellLabel(label)
    except ValueError as exc:
        raise ConfigError(f"unknown Bell label {label!r}") from exc


def cmd_channel(config: RunConfig, args, out) -> int:
    dot = config.dots[args.dot - 1]
    trace = compute_channel(
        dot.n_spins,
        box_equivalent_coupling(dot.a_total_uev, dot.n_spins, dot.n_cells),
        args.b_mt * 1e-3,
        config.times(),
        material=config.material,
    )
    _write_table(
        out,
        ["t_ns", "q", "re_phi", "im_phi"],
        zip(trace.times, trace.q, trace.phi.real, trace.phi.imag),
    )
    return 0


def cmd_concurrence(config: RunConfig, args, out) -> int:
    trace = concurrence_trace(
        config,
        args.b_mt * 1e-3,
        bell=_bell(config, args),
        high_field=args.high_field,
    )
    _write_table(
        out,
        ["t_ns", "concurrence", "witness"],
        zip(trace.times, trace.concurrence, trace.witness),
    )
    return 0


def cmd_sweep(config: RunConfig, args, out) -> int:
    b_min, b_max = args.b_min_mt * 1e-3, args.b_max_mt * 1e-3
    if b_max < b_min:
        raise ConfigError("sweep needs --b-max-mt >= --b-min-mt")
    if args.b_steps < 1:
        raise ConfigError("--b-steps must be >= 1")
    grid = np.linspace(b_min, b_max, args.b_steps)
    result = sweep_b(config, grid, bell=_bell(config, args), workers=args.workers)
    rows = []
    for rec in result.records:
        death = rec.death
        rows.append(
            (
                rec.b_field_t,
                math.nan if death.t_sd is None else death.t_sd,
                math.nan if death.witness_zero is None else death.witness_zero,
                death.revival_count,
                rec.max_occupation_leak,
            )
        )
    _write_table(out, ["b_t", "t_sd_ns", "witness_zero_ns", "revivals", "max_leak"], rows)
    return 0


def cmd_dephasing(config: RunConfig, args, out, err) -> int:
    dot = config.dots[args.dot - 1]
    if args.mode == "uniform":
        couplings = uniform_couplings(dot.a_total_uev, dot.n_cells)
    else:
        couplings = generate_couplings(config.material, dot.geometry())
    trace = dephasing_factor(couplings, config.times())
    _write_table(
        out,
        ["t_ns", "abs_phi", "phase_phi"],
        zip(trace.times, np.abs(trace.phi), np.angle(trace.phi)),
    )
    fit = fit_t2star(trace)
    print(
        f"t2_star_ns={_fmt(fit.t2_star_ns)} rms_residual={_fmt(fit.rms_residual)}"
        f" a_total_uev={_fmt(couplings.a_total)} n_couplings={len(couplings.a_k)}",
        file=err,
    )
    return 0


def _finite(text: str) -> float:
    """argparse type of the field flags: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dotesd",
        description="Hyperfine decoherence and Bell-state entanglement decay "
        "of quantum-dot spin qubits",
    )
    parser.add_argument("--config", help="YAML run configuration (defaults: GaAs twin dots)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", help="single-dot channel q(t), phi(t)")
    p.add_argument("--b-mt", type=_finite, default=0.0, help="magnetic field in millitesla")
    p.add_argument("--dot", type=int, choices=(1, 2), default=1)

    p = sub.add_parser("concurrence", help="Bell-state concurrence and witness trace")
    p.add_argument("--b-mt", type=_finite, default=0.0, help="magnetic field in millitesla")
    p.add_argument(
        "--bell",
        default=None,
        help="psi-plus|psi-minus|phi-plus|phi-minus (default: the config's bell key)",
    )
    p.add_argument(
        "--high-field",
        action="store_true",
        help="pure-dephasing high-field limit (field value ignored)",
    )

    p = sub.add_parser("sweep", help="sudden-death time versus magnetic field")
    p.add_argument("--b-min-mt", type=_finite, default=0.0)
    p.add_argument("--b-max-mt", type=_finite, default=30.0)
    p.add_argument("--b-steps", type=int, default=100)
    p.add_argument("--bell", default=None, help="Bell label (default: the config's bell key)")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes, at most the field and CPU counts (default: 1)",
    )

    p = sub.add_parser("dephasing", help="pure-dephasing coherence and T2* fit")
    p.add_argument("--mode", choices=("uniform", "realistic"), default="uniform")
    p.add_argument("--dot", type=int, choices=(1, 2), default=1)
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config) if args.config else default_config()
        config.validate()
        if args.command == "channel":
            return cmd_channel(config, args, out)
        if args.command == "concurrence":
            return cmd_concurrence(config, args, out)
        if args.command == "sweep":
            return cmd_sweep(config, args, out)
        if args.command == "dephasing":
            return cmd_dephasing(config, args, out, err)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"dotesd: config error: {exc}", file=err)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"dotesd: {exc}", file=err)
        return 1
    except BrokenPipeError:
        # Send the rest to devnull, so the final flush at exit stays silent.
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
