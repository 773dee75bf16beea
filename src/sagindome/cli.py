"""Command-line interface: the coverage, sweep, sample, and count subcommands.

Exit codes: 0 on success, 2 for any input problem (flags, descriptor,
geometry), 3 when an output file or standard output cannot be written.

Only the ``sample`` handler imports numpy (through ``pointprocess``), so every
other command and ``--help`` start without it.
"""

import argparse
import contextlib
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import OutputError, SaginDomeError
from .geometry import expected_count, full_sphere_count, half_power_beamwidth
from .io import (
    Descriptor,
    dumps,
    format_real,
    load_descriptor,
    parse_descriptor,
    points_csv_chunks,
    sweep_csv_chunks,
    write_text_file,
)
from .scenarios import (
    MAX_SWEEP_STEPS,
    Scenario,
    SweepParameter,
    SweepScale,
    SweepSpec,
    check_grid,
    coverage,
    parameter_applicable,
    validate,
)

if TYPE_CHECKING:
    from .sweeps import SweepTable

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_OUTPUT_ERROR = 3

# Descriptor keys that have an inline flag; each flag's dest is its key.
_SCENARIO_KEYS = ("scenario", "carrier_frequency_hz", "illumination_coefficient",
                  "reflector_diameter_m", "min_elevation_deg", "air_altitude_km",
                  "space_altitude_km", "earth_radius_km")

# The scenario flag each sweep parameter replaces, in CLI units; angles
# enter in degrees and are converted to the library's radians at this
# boundary.
_SWEEP_PARAM_KEYS = {
    SweepParameter.CARRIER_FREQUENCY: "carrier_frequency_hz",
    SweepParameter.MIN_ELEVATION: "min_elevation_deg",
    SweepParameter.AIR_ALTITUDE: "air_altitude_km",
    SweepParameter.SPACE_ALTITUDE: "space_altitude_km",
}


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=sorted(s.value for s in Scenario))
    for key in _SCENARIO_KEYS[1:]:
        parser.add_argument("--" + key.replace("_", "-"), type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagindome",
        description="Spherical-dome coverage geometry and seeded transmitter "
                    "sampling for cross-layer space-air-ground links.")
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("coverage",
                         help="resolve one scenario into its coverage dome (JSON)")
    cov.add_argument("--descriptor", help="scenario descriptor JSON file")
    _add_scenario_flags(cov)
    cov.set_defaults(handler=_cmd_coverage)

    swp = sub.add_parser("sweep", help="sweep one parameter over a grid (CSV)")
    _add_scenario_flags(swp)
    swp.add_argument("--param", required=True,
                     choices=sorted(p.value for p in SweepParameter))
    swp.add_argument("--from", dest="sweep_from", type=float, required=True,
                     metavar="LOW",
                     help="grid start (Hz, degrees, or km per --param)")
    swp.add_argument("--to", dest="sweep_to", type=float, required=True,
                     metavar="HIGH", help="grid end")
    swp.add_argument("--steps", type=int, required=True,
                     help=f"grid points, 2 to {MAX_SWEEP_STEPS}")
    swp.add_argument("--scale", choices=[s.value for s in SweepScale],
                     default=SweepScale.LINEAR.value)
    swp.add_argument("--output", help="CSV path (default: standard output)")
    swp.set_defaults(handler=_cmd_sweep)

    smp = sub.add_parser("sample",
                         help="generate a seeded transmitter topology (CSV + JSON summary)")
    smp.add_argument("--descriptor", required=True)
    smp.add_argument("--output", required=True, help="points CSV path")
    smp.set_defaults(handler=_cmd_sample)

    cnt = sub.add_parser("count", help="expected-count arithmetic (JSON)")
    cnt.add_argument("--descriptor", required=True)
    cnt.set_defaults(handler=_cmd_count)
    return parser


def _flags_to_data(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in _SCENARIO_KEYS
            if getattr(args, key, None) is not None}


def _descriptor_from_args(args: argparse.Namespace) -> Descriptor:
    flags = _flags_to_data(args)
    if getattr(args, "descriptor", None):
        if flags:
            raise SaginDomeError(
                "pass either --descriptor or inline scenario flags, not both")
        return load_descriptor(args.descriptor)
    return parse_descriptor(flags)


def _cmd_coverage(args: argparse.Namespace) -> int:
    descriptor = _descriptor_from_args(args)
    spec = descriptor.spec
    dome = coverage(spec)
    payload = {
        "scenario": spec.scenario.value,
        "r_t_km": dome.transmitter_radius_km,
        "r_r_km": dome.receiver_radius_km,
    }
    if spec.antenna is not None:
        payload["beamwidth_rad"] = half_power_beamwidth(spec.antenna)
    payload.update({
        "vertex_angle_rad": dome.vertex_angle_rad,
        "delta": dome.delta,
        "area_km2": dome.area_km2,
        "tangent_limited": dome.tangent_limited,
        "validation_warnings": [
            {
                "parameter": violation.parameter,
                "value": violation.value,
                "permitted": [violation.low, violation.high],
                "severity": "warning",
            }
            for violation in validate(spec)
        ],
    })
    print(dumps(payload))
    return EXIT_OK


def _report_failed_rows(sweep: "SweepTable") -> None:
    """One stderr line with the count of failed rows and the first reason."""
    if sweep.errors:
        first = min(sweep.errors)
        print(f"warning: {len(sweep.errors)} of {len(sweep.parameter_value)} sweep rows "
              f"failed; first at param_value={format_real(sweep.parameter_value[first])}: "
              f"{sweep.errors[first]}", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweeps import grid_values, run_sweep, value_error

    parameter = SweepParameter(args.param)
    scale = SweepScale(args.scale)
    # Checked in CLI units, before anything the size of the grid exists.
    check_grid(args.sweep_from, args.sweep_to, args.steps, scale)
    low, high = args.sweep_from, args.sweep_to
    to_flag = float
    if parameter is SweepParameter.MIN_ELEVATION:
        low, high, to_flag = math.radians(low), math.radians(high), math.degrees
        # Degrees that underflow to 0 rad can lose the order or sign checked above.
        check_grid(low, high, args.steps, scale)
    flags = _flags_to_data(args)
    # The swept parameter's flag, given or not, is set to the first grid
    # value that passes the sweep's per-row value check, so an invalid first
    # grid point becomes a nan row like any other.  Without such a value the
    # scenario is parsed at the grid start and its error ends the command.
    # Inapplicable parameters are left for SweepSpec.
    if "scenario" in flags and parameter_applicable(parameter, Scenario(flags["scenario"])):
        reject = value_error(parameter, flags.get("air_altitude_km"),
                             flags.get("space_altitude_km"))
        valid = (value for value in grid_values(low, high, args.steps, scale)
                 if reject(value) is None)
        flags[_SWEEP_PARAM_KEYS[parameter]] = to_flag(next(valid, low))
    descriptor = parse_descriptor(flags)
    sweep = SweepSpec(
        base=descriptor.spec,
        parameter=parameter,
        low=low,
        high=high,
        steps=args.steps,
        scale=scale,
    )
    table = run_sweep(sweep)
    if args.output:
        write_text_file(args.output, sweep_csv_chunks(table))
    else:
        sys.stdout.writelines(sweep_csv_chunks(table))
    _report_failed_rows(table)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from .pointprocess import DEFAULT_RNG_ALGORITHM, generate

    descriptor = _descriptor_from_args(args)
    dome = coverage(descriptor.spec)
    config = descriptor.sample_config()
    topology = generate(dome, config)
    write_text_file(args.output, points_csv_chunks(topology))
    print(dumps({
        "count": topology.count,
        "area_km2": dome.area_km2,
        "vertex_angle_rad": dome.vertex_angle_rad,
        "seed": config.seed,
        "rng_algorithm": DEFAULT_RNG_ALGORITHM,
        "mode": config.mode.value,
    }))
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    descriptor = _descriptor_from_args(args)
    dome = coverage(descriptor.spec)
    density = descriptor.sample_config(required=("density_per_km2",)).density_per_km2
    exact, mean = expected_count(dome, density)
    print(dumps({
        "exact_product": exact,
        "poisson_mean": mean,
        "full_sphere_count": full_sphere_count(dome.transmitter_radius_km, density),
    }))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``| head``): point stdout's descriptor, if it
        # has one, at os.devnull, so the flush at exit finds no pipe.
        with open(os.devnull, "w") as devnull, \
                contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: cannot write standard output: broken pipe", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    except SaginDomeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
