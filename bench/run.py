#!/usr/bin/env python3
"""The chisigma benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload c8-f32 --seed 1 --seconds 20 --trace 0

Run it from the root of a chisigma checkout; the package is used from
``src/`` and need not be installed. The seed drives every input: the
estimate workloads read volumes this benchmark draws itself
(``fixtures.py``), and ``simulate-gz`` is passed it as ``--seed``.
Drawing the volumes is not timed.

``--trace 0`` measures what a user sees. Each workload is a closed loop
with one client: start one ``python -m chisigma.cli`` child, wait for it
to exit, check its outputs, and only then start the next, until
``--seconds`` have passed and every drawn input has run equally often
(at least three invocations). Wall time and peak RSS are medians over
invocations; ``setup_s`` is the median time of a child that only imports
``chisigma.cli``.

``--trace 1`` runs the same command in this process, alternately plain
and with the outside-in tracer of ``spans.py``, and on the estimate
workloads also runs ``estimate_volume`` at one thread. It reports the
per-layer metrics of ``bench/layers.json``; a layer the workload never
calls reports zero time and zero counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Above it is the
same set of metrics as a table, with the accuracy figures that gate
correctness. Each run also leaves its details, and for traced runs
every span, under ``.bench_work/results/``.
"""

import os

# Fixed before numpy loads, here and in every child: BLAS and OpenMP pools
# would otherwise compete with the program's own --threads.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("CHI_SIGMA_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import (CheckError, check_accuracy, check_csv, check_mask,  # noqa: E402
                    check_simulation, parse_table, read_report, score)
from fixtures import FixtureSpec, make_fixture  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_INVOCATIONS = 3
SETUP_PER_INVOCATION = 2
# The environment above, with the checkout's sources as the only package path.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


@dataclass(frozen=True)
class Workload:
    argv: tuple              # CLI arguments; {input}, {out} and {seed} are filled per run
    fixture: FixtureSpec | None = None   # the volume an estimate workload reads
    out_dims: tuple = ()     # (X, Y, Z, V) written, for a workload without a fixture
    tolerance: dict = field(default_factory=dict)
    n_fixtures: int = 1      # invocations cycle over this many volumes drawn from the seed

    @property
    def dims(self) -> tuple:
        """(X, Y, Z, V) of the volume read or written."""
        return self.fixture.dims if self.fixture else self.out_dims


# What `chisigma simulate` is given, for building its command and checking its output.
SIM_DIMS, SIM_N, SIM_TAU_MAX, SIM_B0, SIM_SNR = (64, 64, 50, 65), 4, 1.75, 5130.0, 30.0
SIM_SIGMA_G = SIM_B0 / SIM_SNR

WORKLOADS = {
    # The paper's criterion-8 problem, float32 on disk.
    "c8-f32": Workload(
        argv=("estimate", "{input}", "--threads", "2", "--out-report", "{out}/report.json",
              "--out-csv", "{out}/slices.csv", "--out-mask", "{out}/mask.nii"),
        fixture=FixtureSpec((96, 96, 60, 83), 4, 100.0, "uniform", 1.0, 30.0, "<f4", 1.0),
        tolerance={"failed_slice_frac": 0.0, "sigma_err_pct": 0.5, "n_err": 0.05},
    ),
    # N = 1 with five volumes: the outer loop, not the data size, is the cost.
    "rician-lowv-i16gz": Workload(
        argv=("estimate", "{input}", "--estimator", "mle", "--threads", "2"),
        fixture=FixtureSpec((96, 96, 60, 5), 1, 40.0, "sphere", 1.75, 30.0, "<i2", 0.37),
        tolerance={"failed_slice_frac": 0.0, "sigma_err_pct": 6.0, "n_err": 0.15},
        # How many slices oscillate to the pass cap varies with the draw and
        # sets the run time, so one run covers several draws, each equally often.
        n_fixtures=6,
    ),
    # The synth layer and the gzip write side of io, at size.
    "simulate-gz": Workload(
        argv=("simulate", "--dims", ",".join(map(str, SIM_DIMS[:3])),
              "--volumes", str(SIM_DIMS[3]), "--ncoils", str(SIM_N), "--profile", "sphere",
              "--tau-max", str(SIM_TAU_MAX), "--b0-mean", str(SIM_B0), "--snr", str(SIM_SNR),
              "--seed", "{seed}", "--out", "{out}/sim.nii.gz", "--truth", "{out}/truth.json"),
        out_dims=SIM_DIMS,
        tolerance={"bg_m2_err": 0.002},
    ),
}


def spawn(cmd, stdout, stderr):
    """Run a child to completion; return (wall s, own peak RSS MB, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=CHILD_ENV, cwd=ROOT)
    try:
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would keep the
        # maximum over every child reaped so far and hide a drop.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Run:
    """One run of one workload: its inputs, outputs and the checks on them."""

    def __init__(self, name: str, seed: int, tmp: Path, n_fixtures: int):
        self.wl = WORKLOADS[name]
        self.tmp = tmp
        self.out = tmp / "out"
        self.inputs = [None]
        self.truths = [None]
        if self.wl.fixture is not None:
            suffix = ".nii.gz" if self.wl.fixture.dtype == "<i2" else ".nii"
            self.inputs = [tmp / f"input{k}{suffix}" for k in range(n_fixtures)]
            seeds = np.random.SeedSequence(seed).generate_state(n_fixtures)
            self.truths = [make_fixture(self.wl.fixture, int(s), p)
                           for s, p in zip(seeds, self.inputs)]
        self.argvs = [[a.format(input=p, out=self.out, seed=seed) for a in self.wl.argv]
                      for p in self.inputs]
        self.attempted = 0
        self.failures = []
        self.accuracy = []
        self.samples = {}

    def fresh_out(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()

    def check(self, code: int, stdout: str, truth) -> None:
        """Check one invocation's outputs against ``truth`` and count it."""
        self.attempted += 1
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            if truth is None:
                acc = check_simulation(self.out / "sim.nii.gz", self.out / "truth.json",
                                       self.wl.dims, SIM_N, SIM_TAU_MAX, SIM_SIGMA_G)
            else:
                records = parse_table(stdout)
                if "--out-report" in self.wl.argv:
                    records = read_report(self.out / "report.json", self.wl.dims)
                if "--out-csv" in self.wl.argv:
                    check_csv(self.out / "slices.csv", records)
                if "--out-mask" in self.wl.argv:
                    check_mask(self.out / "mask.nii", self.wl.dims, records)
                acc = score(records, truth)
            self.accuracy.append(acc)
            check_accuracy(acc, self.wl.tolerance)
        except CheckError as exc:
            self.failures.append(str(exc))


def _time_import(run: Run) -> float:
    wall, _, code = spawn([sys.executable, "-c", "import chisigma.cli"],
                          subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        run.attempted += 1
        run.failures.append(f"import chisigma.cli exited {code}")
    return wall


def measure_e2e(run: Run, seconds: float) -> dict:
    _time_import(run)  # untimed: fills the bytecode cache
    walls, rss, setups = [], [], []
    cycle = len(run.argvs)
    started = time.perf_counter()
    # Whole cycles only, so every draw weighs the same however fast the program is.
    while (len(walls) < max(MIN_INVOCATIONS, cycle) or len(walls) % cycle
           or time.perf_counter() - started < seconds):
        k = len(walls) % cycle
        run.fresh_out()
        with open(run.tmp / "stdout", "w+") as so, open(run.tmp / "stderr", "w") as se:
            wall, peak, code = spawn([sys.executable, "-m", "chisigma.cli", *run.argvs[k]],
                                     so, se)
            so.seek(0)
            run.check(code, so.read(), run.truths[k])
        walls.append(wall)
        rss.append(peak)
        # Import timings spread over the run see the same machine as the
        # invocations, rather than one moment at its start.
        setups += [_time_import(run) for _ in range(SETUP_PER_INVOCATION)]

    run.samples = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setups}
    wall_s = statistics.median(walls)
    return {
        "wall_s": wall_s,
        "mvox_per_s": np.prod(run.wl.dims) / 1e6 / wall_s,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }


def _load_chisigma() -> dict:
    sys.path.insert(0, str(SRC))
    import chisigma.cli
    import chisigma.identify
    import chisigma.io
    import chisigma.synth
    return {"cli": chisigma.cli, "identify": chisigma.identify, "io": chisigma.io,
            "synth": chisigma.synth}


def _in_process(run: Run, modules: dict, tracer=None) -> float:
    """One CLI invocation in this process, optionally traced; returns wall s."""
    run.fresh_out()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        if tracer is None:
            code = modules["cli"].main(run.argvs[0])
        else:
            with tracer:
                code = modules["cli"].main(run.argvs[0])
        wall = time.perf_counter() - start
    run.check(code, out.getvalue(), run.truths[0])
    return wall


def _one_thread(run: Run, modules: dict):
    """estimate_volume at one thread, traced, on the workload's input."""
    identify = modules["identify"]
    volume = modules["io"].read_nifti(run.inputs[0])
    argv = run.wl.argv
    estimator = argv[argv.index("--estimator") + 1] if "--estimator" in argv else "moments"
    config = identify.SearchConfig(estimator=estimator)
    tracer = Tracer(modules)
    with tracer:
        estimates = tracer.call("identify.estimate_volume", identify.estimate_volume,
                                volume, config, threads=1)
    return tracer, estimates, config


ACCURACY_UNITS = {"sigma_err_pct": "%", "n_err": "dof", "failed_slice_frac": "ratio",
                  "bg_m2_err": "ratio"}
MODEL_SPANS = ("model.estimate_sigma", "model.estimate_n_moments", "model.estimate_n_mle")


def layer_metrics(run: Run, wall: float, cli_tr: Tracer, t1) -> dict:
    """Per-layer metrics of one traced repetition; absent hooks give absent metrics."""
    m = {}
    have = cli_tr.hooked
    c = cli_tr.counts

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    if "io.read_nifti" in have:
        m["io.read_nifti_s"] = cli_tr.total("io.read_nifti")
        m["io.read_bytes_in"] = c["io.read_bytes_in"]
        m["io.read_mb_per_s"] = ratio(c["io.read_bytes_in"] / 1e6, m["io.read_nifti_s"])
    if "io.write_nifti" in have:
        m["io.write_nifti_s"] = cli_tr.total("io.write_nifti")
        m["io.write_bytes_out"] = c["io.write_bytes_out"]
    for name in ("build_report", "write_report", "write_slice_csv"):
        if f"io.{name}" in have:
            m[f"io.{name}_s"] = cli_tr.total(f"io.{name}")
    if "identify.sigma_upper_bound" in have:
        m["identify.sigma_upper_bound_s"] = cli_tr.total("identify.sigma_upper_bound")
    if "identify.estimate_volume" in have:
        m["identify.estimate_volume_s"] = cli_tr.total("identify.estimate_volume")
    for name in ("build_phantom", "build_tau", "corrupt"):
        if f"synth.{name}" in have:
            m[f"synth.{name}_s"] = cli_tr.total(f"synth.{name}")
    if "synth.corrupt" in have:
        m["synth.normals_drawn"] = c["synth.normals_drawn"]
        m["synth.corrupt_mvox_per_s"] = ratio(c["synth.voxels"] / 1e6, m["synth.corrupt_s"])
    m["cli.self_s"] = wall - cli_tr.top_level(threading.get_ident())

    t1_tr, estimates, config = t1 if t1 else (Tracer({}), [], None)
    t1_s = t1_tr.total("identify.estimate_volume")
    m["identify.estimate_volume_t1_s"] = t1_s
    m["identify.thread_speedup"] = ratio(t1_s, m.get("identify.estimate_volume_s", 0.0))
    if {"identify.estimate_slice", "specfun.inv_gamma_p", *MODEL_SPANS} <= have:
        m["identify.estimate_slice_t1_s"] = t1_tr.total("identify.estimate_slice")
        m["identify.self_s"] = t1_tr.self_time("identify.estimate_slice", ("model.", "specfun."))
    iters = [e.outer_iters for e in estimates if e.error is None]
    identified = sum(e.n_identified for e in estimates)
    m["identify.outer_iters"] = sum(iters)
    m["identify.candidate_evals"] = (
        sum(config.grid_size + 11 * (i - 1) for i in iters) if config else 0)
    m["identify.capped_slices"] = sum(
        1 for e in estimates if e.error is None and not e.converged
        and e.outer_iters == config.max_outer_iters)
    m["identify.identified_voxels"] = identified
    m["identify.identified_frac"] = (
        ratio(identified, int(run.truths[0].background.sum())) if t1 else 0.0)
    if set(MODEL_SPANS) <= have:
        m["model.calls"] = t1_tr.calls("model.")
        m["model.s"] = sum(t1_tr.total(n) for n in MODEL_SPANS)
        m["model.samples_in"] = t1_tr.counts["model.samples_in"]
    if "specfun.inv_gamma_p" in have:
        m["specfun.inv_gamma_p_calls"] = t1_tr.calls("specfun.inv_gamma_p")
        m["specfun.inv_gamma_p_s"] = t1_tr.total("specfun.inv_gamma_p")
    return m


def measure_traced(run: Run, seconds: float):
    modules = _load_chisigma()
    reps, plain, traced, spans = [], [], [], []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        tracer = Tracer(modules)
        try:
            plain.append(_in_process(run, modules))
            traced.append(_in_process(run, modules, tracer))
            t1 = _one_thread(run, modules) if run.inputs[0] is not None else None
        except Exception:  # a crash inside chisigma is a failed invocation
            run.attempted += 1
            run.failures.append(traceback.format_exc())
            return {}, spans
        reps.append(layer_metrics(run, traced[-1], tracer, t1))
        spans += tracer.records(f"rep{len(reps)}.cli")
        if t1:
            spans += t1[0].records(f"rep{len(reps)}.t1")
    if tracer.missing:
        print(f"note: hooks missing, their metrics are absent: {tracer.missing}",
              file=sys.stderr)
    metrics = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return metrics, spans


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        doc = json.load(f)
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chisigma" / "cli.py").is_file():
        print(f"error: {SRC / 'chisigma'} not found; run from the root of a chisigma "
              "checkout", file=sys.stderr)
        return 2
    declared = declared_metrics()

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # Traced runs use one draw, so their counts repeat exactly for a seed.
        run = Run(args.workload, args.seed, tmp,
                  1 if args.trace else WORKLOADS[args.workload].n_fixtures)
        if args.trace:
            metrics, spans = measure_traced(run, args.seconds)
        else:
            metrics, spans = measure_e2e(run, args.seconds), []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stem = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    keys = run.accuracy[0] if run.accuracy else {}
    accuracy = {k: statistics.median(a[k] for a in run.accuracy) for k in keys}
    accuracy_worst = {k: max(a[k] for a in run.accuracy) for k in keys}
    summary = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]}
                    for k, v in metrics.items() if k in declared},
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, argv=list(run.wl.argv),
                  accuracy=accuracy, accuracy_worst=accuracy_worst,
                  tolerance=run.wl.tolerance, failures=run.failures, samples=run.samples,
                  machine={"nproc": os.cpu_count(), "python": platform.python_version(),
                           "numpy": np.__version__})
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    rows = [(k, v["value"], v["unit"]) for k, v in summary["metrics"].items()]
    rows.append(("error_rate", len(run.failures) / run.attempted, "ratio"))
    rows += [(k, v, ACCURACY_UNITS[k]) for k, v in accuracy.items()]
    for name, value, unit in rows:
        print(f"{args.workload:>18}  {name:<32} {value:>16.6g} {unit}")
    for reason in run.failures:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
