"""Command-line interface: verify / flow / eval.

Configuration files are INI-style (key-value entries inside named sections);
unknown sections or keys are rejected; ``[tolerances]`` applies to ``verify``
and ``flow``. Exit codes: 0 pass, 1 check or flow failure, 2 configuration
error. Outputs are byte-identical for identical configs and seeds.
"""

import argparse
import configparser
import dataclasses
import sys
from importlib import resources

import numpy as np

from .calculus import build_grid
from .errors import FlowAborted, KrflowError, NotInPotentialSpace, ConfigError
from .flow import FlowConfig, TRACE_COLUMNS, run
from .functionals import evaluate, futaki_of_state, make_reference
from .geometry import (DEFAULT_COEFF_BOUND, DEFAULT_DEGREE, ManifoldConfig, RadialPotential,
                       sample_admissible, state_from_total)
from .verification import DEFAULT_TOLERANCES, SuiteConfig, flow_checks, run_suite

_SCHEMA = {
    "run": {"n", "grid_size"},
    "reference": {"coeffs"},
    "potential": {"coeffs", "random", "seed", "rho", "degree"},
    "flow": {"t_max", "dt_init", "record_every"},
    "suite": {"seed", "samples", "fd_pairs", "fd_dt", "flow_grid", "flow_t_max",
              "flow_record_every"},
    "tolerances": set(DEFAULT_TOLERANCES),
    "mutation": {"b1_offset", "h_norm_offset"},
    "output": {"report"},
}


def _fmt(value):
    return f"{value:.17g}"


def _parse_coeffs(text):
    return tuple(float(part) for part in text.replace(",", " ").split())


def load_config(path):
    """Parse and validate an INI config, with every section of the schema;
    raises ConfigError on any problem."""
    parser = configparser.ConfigParser()
    parser.read_dict(dict.fromkeys(_SCHEMA, {}))  # an absent section reads as an empty one
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return parser


def _manifold(parser):
    run_sec = parser["run"]
    n = int(run_sec.get("n", 1))
    grid_size = int(run_sec.get("grid_size", 1024))
    return ManifoldConfig(n=n, grid=build_grid(grid_size))


def _reference_potential(parser):
    """The [reference] potential; absent or empty coeffs give the zero
    potential, whose reference is Fubini-Study."""
    return RadialPotential(_parse_coeffs(parser["reference"].get("coeffs", "")))


def _potential(parser, manifold):
    sec = parser["potential"]
    if sec.getboolean("random", fallback=False):
        rng = np.random.default_rng(int(sec.get("seed", 0)))
        return sample_admissible(
            manifold, rng, 1,
            coeff_bound=float(sec.get("rho", DEFAULT_COEFF_BOUND)),
            degree=int(sec.get("degree", DEFAULT_DEGREE)))[0]
    coeffs = _parse_coeffs(sec.get("coeffs", "0"))
    return RadialPotential(coeffs)


def _suite_config(parser, manifold):
    """The [suite] and [mutation] keys, each converted with its SuiteConfig
    field type; absent keys take the field default."""
    types = {f.name: f.type for f in dataclasses.fields(SuiteConfig)}
    values = {}
    for section in ("suite", "mutation"):
        values.update((k, types[k](v)) for k, v in parser[section].items())
    return SuiteConfig(n=manifold.n, grid_size=manifold.grid.size,
                       tolerances=_tolerances(parser), **values)


def _tolerances(parser):
    """The [tolerances] overrides, name -> float, each finite and >= 0."""
    overrides = {k: float(v) for k, v in parser["tolerances"].items()}
    for name, value in overrides.items():
        if not 0.0 <= value < np.inf:
            raise ConfigError(f"tolerance {name} must be finite and >= 0, got {value}")
    return overrides


def _flow_config(parser, manifold):
    sec = parser["flow"]
    optional = {"record_every": int(sec["record_every"])} if "record_every" in sec else {}
    return FlowConfig(
        manifold=manifold,
        initial=_potential(parser, manifold),
        t_max=float(sec.get("t_max", 1.0)),
        dt_init=float(sec["dt_init"]) if sec.get("dt_init") else None,
        reference=_reference_potential(parser),
        **optional,
    )


def default_config_path():
    """Path of the bundled verification config."""
    return resources.files("krflow") / "configs" / "verify_default.ini"


def cmd_verify(config_path):
    """Run the verification suite; exit 0 iff every check passes."""
    parser = load_config(config_path)
    manifold = _manifold(parser)
    suite_config = _suite_config(parser, manifold)
    report = run_suite(suite_config)
    text = report.to_text()
    sys.stdout.write(text)
    if parser["output"].get("report"):
        with open(parser["output"]["report"], "w") as fh:
            fh.write(text)
    return 0 if report.passed else 1


def _trace_lines(trace):
    yield ",".join(TRACE_COLUMNS)
    for rec in trace.records:
        yield ",".join(_fmt(v) for v in rec.row())


def _summary_lines(trace, checks=None):
    """The summary block of ``trace``'s ``flow_checks``, by default at the defaults."""
    monotone, residual, inequality = checks or flow_checks(trace)
    yield f"# c_omega = {_fmt(trace.c_omega)}"
    yield (f"# max_residual_deviation = {_fmt(residual.value)} "
           f"(tolerance {_fmt(residual.tolerance)}): {residual.status}")
    yield (f"# nu_monotone_violation = {_fmt(monotone.value)} "
           f"(tolerance {monotone.tolerance!r}): {monotone.status}")
    yield (f"# inequality_margin = {_fmt(trace.inequality_margin())} "
           f"(floor {-inequality.tolerance!r}): {inequality.status}")
    yield f"# steps_accepted = {trace.accepted}, steps_rejected = {trace.rejected}"


def cmd_flow(config_path, out_path):
    """Run the flow, write the trace plus its ``flow_checks`` at the config's
    ``[tolerances]``; exit 1 when the flow aborts or the inequality gate fails."""
    parser = load_config(config_path)
    overrides = _tolerances(parser)
    try:
        trace = run(_flow_config(parser, _manifold(parser)))
    except FlowAborted as exc:
        print(f"flow aborted: {exc}", file=sys.stderr)
        return 1
    checks = flow_checks(trace, overrides)
    with open(out_path, "w") as fh:
        for line in (*_trace_lines(trace), *_summary_lines(trace, checks)):
            fh.write(line + "\n")
    return 0 if checks[2].passed else 1


def cmd_eval(config_path, phi_text):
    """Print the energies at one potential, then the Futaki invariant and
    the reference's c0 and c1; exit 1 when the potential is not in the
    admissible cone. The Futaki value is the reference state's: it is an
    invariant of the class, the same at every potential. Every value is read
    before the first line is printed, so an error leaves no partial report."""
    parser = load_config(config_path)
    manifold = _manifold(parser)
    ref = make_reference(state_from_total(manifold, _reference_potential(parser)))
    phi = RadialPotential(_parse_coeffs(phi_text))
    try:
        energies = evaluate(ref, phi)
    except NotInPotentialSpace as exc:
        print(f"NotInPotentialSpace: {exc}", file=sys.stderr)
        return 1
    rows = [(name, getattr(energies, name))
            for name in ("j", "j_mixed", "nu", "e1", "dirichlet", "residual")]
    rows += [("futaki", futaki_of_state(ref.state)), ("c0", ref.c0), ("c1", ref.c1)]
    sys.stdout.write("".join(f"{name},{_fmt(value)}\n" for name, value in rows))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="krflow",
        description="Energy functionals and Ricci flow on rotationally "
                    "symmetric metrics over CP^n")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--config", default=None,
                          help="INI config (defaults to the bundled one)")

    p_flow = sub.add_parser("flow", help="integrate the flow and write a trace")
    p_flow.add_argument("--config", required=True)
    p_flow.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the functionals at a potential")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--phi", required=True,
                        help="comma-separated polynomial coefficients, low degree first")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            config = args.config if args.config is not None else str(default_config_path())
            return cmd_verify(config)
        if args.command == "flow":
            return cmd_flow(args.config, args.out)
        if args.command == "eval":
            return cmd_eval(args.config, args.phi)
    except (ValueError, OSError, configparser.Error) as exc:  # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except KrflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
