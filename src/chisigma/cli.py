"""Command-line interface: estimate, simulate, evaluate.

The CLI is a thin shell over the library. Exit codes: 0 on success, 1
for usage or configuration errors, 2 for I/O or format errors, 3 when
estimation fails on every slice. ``--threads`` is the only thread
setting.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import ChiSigmaError, ConfigError, NiftiError, SchemaError
from .identify import AXIS_INDEX, SearchConfig, estimate_volume
from .io import (
    build_report,
    read_nifti,
    read_report,
    write_nifti,
    write_report,
    write_slice_csv,
)
# simulate is not called here; it stays importable from this module
# because bench/spans.py hooks it by name on it.
from .synth import PhantomSpec, evaluate_report, simulate, simulate_stream  # noqa: F401

__all__ = ["cmd_estimate", "cmd_simulate", "cmd_evaluate", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_ALL_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the
    # package convention (usage errors are exit 1) instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _resolve_threads(value: str) -> int:
    if value == "auto":
        return os.cpu_count() or 1
    try:
        threads = int(value)
    except ValueError:
        raise ConfigError(f"threads must be an integer or 'auto', got {value!r}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    return threads


def cmd_estimate(args) -> int:
    """Estimate sigma_g and N per slice of a 4D volume."""
    threads = _resolve_threads(args.threads)
    config = SearchConfig(
        p=args.p,
        grid_size=args.grid,
        n_min=args.nmin,
        n_max=args.nmax,
        estimator=args.estimator,
        fixed_n=args.fixed_n,
        slice_axis=args.axis,
    )
    volume = read_nifti(args.input)
    estimates = estimate_volume(volume, config, threads=threads)

    ok = [e for e in estimates if e.error is None]
    failed = [e for e in estimates if e.error is not None]
    print(f"{'slice':>5} {'sigma_g':>14} {'n_dof':>10} {'identified':>10} "
          f"{'iters':>5} {'converged':>9}")
    for e in estimates:
        print(f"{e.slice_index:>5} {e.sigma_g:>14.6f} {e.n_dof:>10.4f} "
              f"{e.n_identified:>10} {e.outer_iters:>5} {str(e.converged):>9}")
    if ok:
        med_sigma = float(np.median([e.sigma_g for e in ok]))
        med_n = float(np.median([e.n_dof for e in ok]))
        print(f"volume median sigma_g = {med_sigma:.6f}, median n_dof = {med_n:.4f}")
    if failed:
        print("warning: estimation failed on "
              f"{len(failed)} slice(s):", file=sys.stderr)
        for e in failed:
            print(f"  slice {e.slice_index}: {e.error}", file=sys.stderr)
    if not ok:
        print("error: estimation failed on every slice", file=sys.stderr)
        return EXIT_ALL_FAILED

    report = build_report(estimates, config, volume)
    if args.out_report:
        write_report(report, args.out_report)
    if args.out_csv:
        write_slice_csv(report, args.out_csv)
    if args.out_mask:
        axis = AXIS_INDEX[config.slice_axis]
        mask3d = np.stack([e.mask for e in estimates], axis=axis)
        write_nifti(mask3d, args.out_mask, spacing=volume.spacing)
    return EXIT_OK


def _parse_dims(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"dims must be X,Y,Z - got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"dims must be integers, got {text!r}")
    return dims


def cmd_simulate(args) -> int:
    """Generate a noisy synthetic dataset plus its ground-truth sidecar."""
    # isfinite first: int() raises on inf and NaN.
    if not math.isfinite(args.ncoils) or int(args.ncoils) != args.ncoils or args.ncoils < 1:
        raise ConfigError(f"ncoils must be a positive integer, got {args.ncoils}")
    geometry = {"uniform": "uniform_object", "spheres": "concentric_spheres"}[args.geometry]
    profile = {"uniform": "uniform", "sphere": "sphere_ramp"}[args.profile]
    spec = PhantomSpec(
        dims=_parse_dims(args.dims),
        n_volumes=args.volumes,
        geometry=geometry,
        snr=args.snr,
        n_true=float(int(args.ncoils)),
        profile=profile,
        tau_max=args.tau_max,
        seed=args.seed,
        b0_intensity=args.b0_mean,
    )
    # Each volume is drawn as the write reaches it, so no 4D array is held.
    noisy, truth = simulate_stream(spec)
    write_nifti(noisy, args.out)
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as f:
            json.dump(truth, f, indent=2)
            f.write("\n")
    print(f"wrote {args.out}: dims {noisy.dims}, sigma_g = {truth['sigma_g']:.6f}, "
          f"N = {int(spec.n_true)}, seed = {spec.seed}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    """Score an estimation report against simulation ground truth."""
    report = read_report(args.report)
    try:
        with open(args.truth, "r", encoding="utf-8") as f:
            truth = json.load(f)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{args.truth}: not valid JSON ({exc})") from exc
    result = evaluate_report(report, truth)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            f.write("# sigma_true per slice = mean of tau*sigma_g over the "
                    "slice's true background voxels\n")
            f.write("slice_index,pct_error_sigma,n_est,n_true\n")
            for rec in result.per_slice:
                f.write(f"{rec['slice_index']},{rec['pct_error_sigma']!r},"
                        f"{rec['n_est']!r},{rec['n_true']!r}\n")
    print(f"slices evaluated: {len(result.per_slice)}, skipped: {len(result.skipped)}")
    print(f"sigma_g percentage error: mean = {result.mean_pct_error:.4f}%, "
          f"std = {result.std_pct_error:.4f}%")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="chisigma",
                     description="Noise level and degrees-of-freedom estimation "
                                 "for 4D magnitude MRI data.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    est = sub.add_parser("estimate", help="estimate sigma_g and N per slice")
    est.add_argument("input", help="input volume (.nii or .nii.gz)")
    est.add_argument("--p", type=float, default=0.05,
                     help="rejection probability level (default 0.05)")
    est.add_argument("--grid", type=int, default=50,
                     help="initial search grid size (default 50)")
    est.add_argument("--nmin", type=float, default=1.0,
                     help="lower bound on N (default 1)")
    est.add_argument("--nmax", type=float, default=12.0,
                     help="upper bound on N (default 12)")
    est.add_argument("--estimator", choices=("moments", "mle"), default="moments",
                     help="N estimator (default moments)")
    est.add_argument("--fixed-n", dest="fixed_n", type=float, default=None,
                     help="pin N to this value and estimate only sigma_g")
    est.add_argument("--axis", choices=("x", "y", "z"), default="z",
                     help="slice axis (default z)")
    est.add_argument("--out-report", dest="out_report", default=None,
                     help="write the JSON report here")
    est.add_argument("--out-mask", dest="out_mask", default=None,
                     help="write the stacked identification mask here (.nii)")
    est.add_argument("--out-csv", dest="out_csv", default=None,
                     help="write per-slice CSV here")
    est.add_argument("--threads", default="auto",
                     help="worker threads, integer or 'auto' (default auto)")

    sim = sub.add_parser("simulate", help="generate a noisy synthetic dataset")
    sim.add_argument("--dims", default="64,64,50", help="X,Y,Z (default 64,64,50)")
    sim.add_argument("--volumes", type=int, default=65,
                     help="number of volumes (default 65)")
    sim.add_argument("--snr", type=float, default=30.0,
                     help="reference-volume SNR (default 30)")
    sim.add_argument("--ncoils", type=float, default=4,
                     help="true N, a positive integer (default 4)")
    sim.add_argument("--geometry", choices=("uniform", "spheres"), default="uniform",
                     help="object geometry (default uniform)")
    sim.add_argument("--profile", choices=("uniform", "sphere"), default="uniform",
                     help="noise profile (default uniform)")
    sim.add_argument("--tau-max", dest="tau_max", type=float, default=1.75,
                     help="noise modulation at the volume edge (default 1.75)")
    sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sim.add_argument("--b0-mean", dest="b0_mean", type=float, default=5130.0,
                     help="object mean of the reference volume (default 5130)")
    sim.add_argument("--out", required=True, help="output volume path")
    sim.add_argument("--truth", default=None, help="ground-truth JSON path")

    ev = sub.add_parser("evaluate", help="score a report against ground truth")
    ev.add_argument("--report", required=True, help="JSON report from estimate")
    ev.add_argument("--truth", required=True, help="ground-truth JSON from simulate")
    ev.add_argument("--out", default=None, help="per-slice CSV output path")

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        handler = {"estimate": cmd_estimate, "simulate": cmd_simulate,
                   "evaluate": cmd_evaluate}[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NiftiError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ChiSigmaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
