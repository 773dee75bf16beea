"""Command-line interface: the coverage, sweep, sample, and count subcommands.

Exit codes: 0 on success, 2 for any input problem (flags, descriptor,
geometry), 3 when an output file or standard output cannot be written.

Only the ``sample`` handler imports numpy (through ``pointprocess``), so every
other command and ``--help`` start without it.
"""

import argparse
import contextlib
import gc
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, NoReturn

from .errors import OutputError, SaginDomeError
from .geometry import expected_count, full_sphere_count, half_power_beamwidth
from .io import (
    _FIELD_KEYS,
    _SCENARIO_KEYS,
    Descriptor,
    dumps,
    format_real,
    load_descriptor,
    parse_descriptor,
    points_blocks_csv_chunks,
    sweep_blocks_csv_chunks,
    write_text_file,
)
from .scenarios import (
    MAX_SWEEP_STEPS,
    _PARAMETER_FIELDS,
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


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a token which starts like a negative
    number (``-1e-3``, ``-.5``, ``-inf``, ``-nan``) as a value, not as an
    option, so every float flag takes each negative value ``float`` reads.
    Stock argparse reads only plain decimals such as ``-5`` as values.

    Its own refusals (an unknown choice, a missing flag, a value of the
    wrong type) end like every other input error, in one ``error:`` line and
    exit 2, not in the usage block.  The subcommands' parsers are of this
    class too: ``add_parser`` builds them with the class of the parser it
    belongs to."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> NoReturn:
        raise SaginDomeError(message)


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    # Each flag's dest is its descriptor key.
    parser.add_argument("--scenario", choices=sorted(s.value for s in Scenario))
    for key in _SCENARIO_KEYS[1:]:
        parser.add_argument("--" + key.replace("_", "-"), type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


class _FailedRows:
    """A sweep's failed-row count and its first failed row, taken from its
    blocks as they pass, for the one stderr line."""

    def __init__(self) -> None:
        self.count = 0
        self.first: tuple[float, str] | None = None

    def tally(self, blocks: Iterable["SweepTable"]) -> Iterator["SweepTable"]:
        for block in blocks:
            if block.errors:
                if self.first is None:
                    index = min(block.errors)
                    self.first = block.parameter_value[index], block.errors[index]
                self.count += len(block.errors)
            yield block

    def report(self, rows: int) -> None:
        """One stderr line with the count of failed rows and the first reason."""
        if self.first is not None:
            value, reason = self.first
            print(f"warning: {self.count} of {rows} sweep rows failed; first at "
                  f"param_value={format_real(value)}: {reason}", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweeps import base_value, sweep_blocks

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
    # value the scenario accepts (``base_value``), so an invalid first grid
    # point becomes a nan row like any other.  Without such a value, or when
    # the other layer's fixed altitude fails on its own, the scenario is
    # parsed at the grid start and its error ends the command.  The flag is
    # the first key of the parameter's field, in CLI units (degrees for the
    # elevation).  Inapplicable parameters are left for SweepSpec.
    if "scenario" in flags and parameter_applicable(parameter, Scenario(flags["scenario"])):
        flags[_FIELD_KEYS[_PARAMETER_FIELDS[parameter]][0]] = to_flag(base_value(
            parameter, flags.get("air_altitude_km"), flags.get("space_altitude_km"),
            low, high, args.steps, scale))
    descriptor = parse_descriptor(flags)
    sweep = SweepSpec(
        base=descriptor.spec,
        parameter=parameter,
        low=low,
        high=high,
        steps=args.steps,
        scale=scale,
    )
    # The fixed values were checked with the base scenario, and the swept
    # value's interval is fixed here, before --output is opened; each block
    # is then made, written and dropped in turn.
    blocks = sweep_blocks(sweep)
    failed = _FailedRows()
    chunks = sweep_blocks_csv_chunks(failed.tally(blocks))
    if args.output:
        write_text_file(args.output, chunks)
    else:
        sys.stdout.writelines(chunks)
    failed.report(args.steps)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from .pointprocess import DEFAULT_RNG_ALGORITHM, point_blocks

    descriptor = _descriptor_from_args(args)
    dome = coverage(descriptor.spec)
    config = descriptor.sample_config()
    # The count is drawn and checked here, before --output is opened; each
    # block of points is then drawn, written and dropped in turn.
    count, blocks = point_blocks(dome, config)
    write_text_file(args.output, points_blocks_csv_chunks(blocks))
    print(dumps({
        "count": count,
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
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    except OSError as exc:
        # The handlers raise every other read or write failure as a
        # DescriptorError or an OutputError, so this one is from writing
        # standard output: the reader went away (``| head``) or the device
        # is full.  Point stdout's descriptor, if it has one, at os.devnull,
        # so the flush at exit does not fail again.
        with open(os.devnull, "w") as devnull, \
                contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        reason = (exc.strerror or str(exc)).lower()
        print(f"error: cannot write standard output: {reason}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    except SaginDomeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main_entry() -> None:
    # Before numpy loads: a sample's per-block products are too small to
    # gain from OpenBLAS's worker threads, whose start-up and spinning cost
    # CPU.  A value the user set wins; in-process ``main`` calls keep theirs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    # The process ends here, so its objects need no collecting: frozen, they
    # are skipped by the interpreter's last full collection, which would walk
    # every one (numpy's as well, once a sample has loaded it).  Exit handlers
    # still run.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
