"""Command line front end.

Four subcommands: ``simulate`` writes one trajectory as CSV, ``boost``
runs the same physical motion in two frames and reports the worst event
discrepancy, ``verify`` runs the property suites, and ``legendre``
evaluates the momentum lift of a configured initial condition.

Exit codes: 0 success, 1 verification or covariance failure, 2 invalid
input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from .affine_values import affine_momentum, shell_function
from .chart import Frame, SpatialCovector, SpatialVector, embed, metric, metric_inv
from .config import ConfigError, RunConfig, load_config
from .frame_dynamics import IntegrationDiverged, Sample, State, integrate
from .homogeneous import legendre, mass_shell_residual
from .potentials import Potential
from .verify import max_event_gap, render_report, run_checks

__all__ = ["main"]

_CSV_HEADER = "step,t,x,y,z,px,py,pz,energy,shell_residual"


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _csv_section(u: Frame, mass: float, potential: Potential,
                 samples: list[Sample]) -> list[str]:
    lines = [_CSV_HEADER]
    inv_mass = 1.0 / mass
    for step, sample in enumerate(samples):
        x, p = sample.state.x, sample.state.p
        v = embed(metric_inv(p * inv_mass)) + u
        lift = legendre(u, mass, potential, x, v)
        residual = mass_shell_residual(u, mass, potential, x, lift)
        lines.append(",".join((
            str(step), _fmt(sample.t), _fmt(x.x), _fmt(x.y), _fmt(x.z),
            _fmt(p.x), _fmt(p.y), _fmt(p.z), _fmt(sample.energy), _fmt(residual))))
    return lines


def _write_lines(path: str, lines: list[str]):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _run(cfg: RunConfig, u: Frame, p0: SpatialCovector) -> list[Sample]:
    return integrate(u, cfg.mass, cfg.potential, State(cfg.x0, p0),
                     cfg.dt, cfg.steps)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    samples = _run(cfg, cfg.frame, cfg.p0)
    _write_lines(args.out, _csv_section(cfg.frame, cfg.mass, cfg.potential, samples))
    return 0


def _parse_boost(raw: str) -> SpatialVector:
    parts = raw.replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError(f"boost: expected 3 numbers, got {len(parts)}")
    try:
        return SpatialVector(*(float(part) for part in parts))
    except ValueError as exc:
        raise ConfigError(f"boost: {exc}") from None


def _cmd_boost(args) -> int:
    cfg = load_config(args.config)
    boost = _parse_boost(args.boost)
    u1 = cfg.frame
    u2 = Frame.from_boost(u1.boost() + boost)
    # Same physical initial condition seen from the boosted frame.
    p2 = cfg.p0 - metric(boost) * cfg.mass
    if args.corrupt_momentum:
        p2 = p2 + SpatialCovector(args.corrupt_momentum, 0.0, 0.0)
    first = _run(cfg, u1, cfg.p0)
    second = _run(cfg, u2, p2)
    discrepancy = max_event_gap(first, second)

    lines = _csv_section(u1, cfg.mass, cfg.potential, first)
    lines.append("")
    lines.extend(_csv_section(u2, cfg.mass, cfg.potential, second))
    lines.append("")
    lines.append(f"max_event_discrepancy={_fmt(discrepancy)}")
    _write_lines(args.out, lines)
    if discrepancy <= cfg.tol:
        return 0
    print(f"error: event discrepancy {discrepancy:.3e} exceeds tol {cfg.tol:.3e}",
          file=sys.stderr)
    return 1


def _cmd_verify(args) -> int:
    results = run_checks(trials=args.trials, seed=args.seed, tolerance=args.tol)
    for line in render_report(results):
        print(line)
    return 0 if all(result.passed for result in results) else 1


def _cmd_legendre(args) -> int:
    cfg = load_config(args.config)
    if cfg.v0 is None:
        raise ConfigError("v0: required for legendre")
    v = embed(cfg.v0) + cfg.frame
    p = legendre(cfg.frame, cfg.mass, cfg.potential, cfg.x0, v)
    momentum = affine_momentum(cfg.mass, cfg.frame, p)
    residual = mass_shell_residual(cfg.frame, cfg.mass, cfg.potential, cfg.x0, p)
    defect = shell_function(momentum) + cfg.potential.value(cfg.x0)
    print("momentum = " + ",".join(_fmt(c) for c in p.components()))
    print("class_momentum = " + ",".join(_fmt(c) for c in momentum.p.components()))
    print("shell_residual = " + _fmt(residual))
    print("shell_energy_plus_potential = " + _fmt(defect))
    if abs(residual) > cfg.tol:
        print(f"error: shell residual {residual:.3e} exceeds tol {cfg.tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galimech",
        description="Frame-independent Newtonian particle mechanics tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    simulate.add_argument("--config", required=True, help="run configuration file")
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.set_defaults(func=_cmd_simulate)

    boost = sub.add_parser(
        "boost", help="integrate in the configured and a boosted frame, compare")
    boost.add_argument("--config", required=True, help="run configuration file")
    boost.add_argument("--boost", required=True, metavar="BX,BY,BZ",
                       help="boost added to the configured frame")
    boost.add_argument("--out", required=True, help="output path (two CSV sections)")
    boost.add_argument("--corrupt-momentum", type=float, default=0.0,
                       metavar="DELTA",
                       help="test hook: offset the boosted momentum map")
    boost.set_defaults(func=_cmd_boost)

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tol", type=float, default=None,
                        help="override every per-suite tolerance")
    verify.set_defaults(func=_cmd_verify)

    legendre_cmd = sub.add_parser(
        "legendre", help="evaluate the momentum lift of the configured state")
    legendre_cmd.add_argument("--config", required=True, help="run configuration file")
    legendre_cmd.set_defaults(func=_cmd_legendre)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
