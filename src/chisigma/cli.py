"""Command-line interface: estimate, simulate, evaluate.

The CLI is a thin shell over the library. Exit codes: 0 on success, 1
for usage or configuration errors, 2 for I/O or format errors, 3 when
estimation fails on every slice. ``--threads`` is the only thread
setting. The process entry point is :func:`run`; :func:`main` serves
in-process callers and changes nothing process-wide.
"""

import argparse
import gc
import json
import os
import sys
# Not np.median, which imports numpy.ma on first use.
from statistics import median

import numpy as np

from .errors import ChiSigmaError, ConfigError, NiftiError, SchemaError
from .identify import AXIS_INDEX, ESTIMATORS, MAX_GRID_SIZE, SearchConfig, estimate_volume
from .io import (
    build_report,
    read_nifti,
    read_report,
    volume_fingerprint,
    write_nifti,
    write_report,
    write_slice_csv,
)
from .model import _is_whole
# simulate is not called here; it stays importable from this module
# because bench/spans.py hooks it by name on it.
from .synth import PhantomSpec, evaluate_report, simulate, simulate_stream  # noqa: F401

__all__ = ["cmd_estimate", "cmd_simulate", "cmd_evaluate", "main", "run"]

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
    want_report = bool(args.out_report or args.out_csv)
    if want_report and threads > 1:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as helper:
            # hashlib releases the interpreter lock, so a second thread hashes
            # the input for the report while it is reduced and searched.
            hashing = helper.submit(volume_fingerprint, volume)
            estimates = estimate_volume(volume, config, threads=threads)
            fingerprint = hashing.result()
    else:
        estimates = estimate_volume(volume, config, threads=threads)
        fingerprint = None

    ok = [e for e in estimates if e.error is None]
    failed = [e for e in estimates if e.error is not None]
    print(f"{'slice':>5} {'sigma_g':>14} {'n_dof':>10} {'identified':>10} "
          f"{'iters':>5} {'converged':>9}")
    for e in estimates:
        print(f"{e.slice_index:>5} {e.sigma_g:>14.6f} {e.n_dof:>10.4f} "
              f"{e.n_identified:>10} {e.outer_iters:>5} {str(e.converged):>9}")
    if ok:
        med_sigma = median([e.sigma_g for e in ok])
        med_n = median([e.n_dof for e in ok])
        print(f"volume median sigma_g = {med_sigma:.6f}, median n_dof = {med_n:.4f}")
    if failed:
        print("warning: estimation failed on "
              f"{len(failed)} slice(s):", file=sys.stderr)
        for e in failed:
            print(f"  slice {e.slice_index}: {e.error}", file=sys.stderr)
    if not ok:
        print("error: estimation failed on every slice", file=sys.stderr)
        return EXIT_ALL_FAILED

    if want_report:
        report = build_report(estimates, config, volume, fingerprint=fingerprint)
    if args.out_report:
        write_report(report, args.out_report)
    if args.out_csv:
        write_slice_csv(report, args.out_csv)
    if args.out_mask:
        axis = AXIS_INDEX[config.slice_axis]
        mask3d = np.stack([e.mask for e in estimates], axis=axis)
        write_nifti(mask3d, args.out_mask, spacing=volume.spacing)
    return EXIT_OK


# The --geometry and --profile keys, and the PhantomSpec value of each.
_GEOMETRIES = {"uniform": "uniform_object", "spheres": "concentric_spheres"}
_PROFILES = {"uniform": "uniform", "sphere": "sphere_ramp"}


def _parse_dims(text: str) -> tuple:
    # PhantomSpec checks the count and the range.
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"dims must be integers, got {text!r}")


def cmd_simulate(args) -> int:
    """Generate a noisy synthetic dataset plus its ground-truth sidecar."""
    if not _is_whole(args.ncoils) or args.ncoils < 1:
        raise ConfigError(f"ncoils must be a positive integer, got {args.ncoils}")
    spec = PhantomSpec(
        dims=_parse_dims(args.dims),
        n_volumes=args.volumes,
        geometry=_GEOMETRIES[args.geometry],
        snr=args.snr,
        n_true=float(int(args.ncoils)),
        profile=_PROFILES[args.profile],
        tau_max=args.tau_max,
        seed=args.seed,
        b0_intensity=args.b0_mean,
    )
    # Each volume is drawn by the write, on its threads, so no 4D array is held.
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    est.add_argument("--p", type=float, default=SearchConfig.p,
                     help="rejection probability level (default %(default)s)")
    est.add_argument("--grid", type=int, default=SearchConfig.grid_size,
                     help=f"initial search grid size, 2 to {MAX_GRID_SIZE} (default %(default)s)")
    est.add_argument("--nmin", type=float, default=SearchConfig.n_min,
                     help="lower bound on N (default %(default)s)")
    est.add_argument("--nmax", type=float, default=SearchConfig.n_max,
                     help="upper bound on N (default %(default)s)")
    est.add_argument("--estimator", choices=ESTIMATORS, default=SearchConfig.estimator,
                     help="N estimator (default %(default)s)")
    est.add_argument("--fixed-n", dest="fixed_n", type=float, default=SearchConfig.fixed_n,
                     help="pin N to this value and estimate only sigma_g")
    est.add_argument("--axis", choices=tuple(AXIS_INDEX), default=SearchConfig.slice_axis,
                     help="slice axis (default %(default)s)")
    est.add_argument("--out-report", dest="out_report", default=None,
                     help="write the JSON report here")
    est.add_argument("--out-mask", dest="out_mask", default=None,
                     help="write the stacked identification mask here (.nii)")
    est.add_argument("--out-csv", dest="out_csv", default=None,
                     help="write per-slice CSV here")
    est.add_argument("--threads", default="auto",
                     help="threads, integer or 'auto' (default auto); with 2 or more, "
                          "a second thread hashes the input for the report while "
                          "it is reduced to moments and the slices are searched")

    sim = sub.add_parser("simulate", help="generate a noisy synthetic dataset")
    sim.add_argument("--dims", default=",".join(map(str, PhantomSpec.dims)),
                     help="X,Y,Z (default %(default)s)")
    sim.add_argument("--volumes", type=int, default=PhantomSpec.n_volumes,
                     help="number of volumes (default %(default)s)")
    sim.add_argument("--snr", type=float, default=PhantomSpec.snr,
                     help="reference-volume SNR (default %(default)s)")
    sim.add_argument("--ncoils", type=float, default=PhantomSpec.n_true,
                     help="true N, a positive integer (default %(default)s)")
    sim.add_argument("--geometry", choices=tuple(_GEOMETRIES),
                     default={v: k for k, v in _GEOMETRIES.items()}[PhantomSpec.geometry],
                     help="object geometry (default %(default)s)")
    sim.add_argument("--profile", choices=tuple(_PROFILES),
                     default={v: k for k, v in _PROFILES.items()}[PhantomSpec.profile],
                     help="noise profile (default %(default)s)")
    sim.add_argument("--tau-max", dest="tau_max", type=float, default=PhantomSpec.tau_max,
                     help="noise modulation at the volume edge (default %(default)s)")
    sim.add_argument("--seed", type=int, default=PhantomSpec.seed,
                     help="RNG seed (default %(default)s)")
    sim.add_argument("--b0-mean", dest="b0_mean", type=float, default=PhantomSpec.b0_intensity,
                     help="object mean of the reference volume (default %(default)s)")
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


def run() -> int:
    """Process entry point: :func:`main` on ``sys.argv``, with the imports' heap frozen.

    ``gc.freeze()`` moves every object made so far, nearly all of them by
    the imports, to a generation that the collector skips, both during
    the run and in the final collection at exit, which would otherwise
    walk them all. Exit is otherwise the normal one: atexit handlers,
    thread joins and stream flushes still run.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
