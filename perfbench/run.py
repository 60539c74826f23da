"""ringform benchmark: one workload, one seed, a closed loop of fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run is ``ringform.cli.execute`` in
its own child interpreter (``child.py``), started only after the previous
one ended: one client, closed loop.  Every run's outputs are checked
(``workloads.py``) and must be byte-identical to the first run's.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs pairs of one untraced and one traced run and reports
the per-layer metrics, the tracing overhead among them.  The last line of
standard output is the JSON result; the lines before it give each
metric's median, quartiles and sample count and the run environment,
which is also written to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from workloads import WORKLOADS, check_run, reference_for

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK_DIR = ".perfbench_runs"
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program or broken set-up)."""


def child_environment(nproc: int) -> dict[str, str]:
    """Serial sweep, BLAS threads capped at the usable cores."""
    env = dict(os.environ)
    env.pop("RINGFORM_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc)
    return env


def describe_environment(root: Path, seed: int, env: dict[str, str]) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    for path in sorted((root / "src" / "ringform").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_caps": {var: env[var] for var in BLAS_THREAD_VARS},
        "RINGFORM_THREADS": env.get("RINGFORM_THREADS", "unset"),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def output_digest(out_dir: Path, stdout: Path) -> str:
    """Hash of every output file but the manifest (it holds the wall time)."""
    digest = hashlib.sha256(stdout.read_bytes())
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Loop:
    """Closed loop of child runs of one workload at one seed."""

    def __init__(self, root: Path, workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = workload.resolved(root)
        if workload.config_file is not None:
            self.config_path = root / workload.config_file
        else:
            self.config_path = work / "config.yaml"
            self.config_path.write_text(yaml.safe_dump(self.config))
        self.out_dir = work / "out"
        self.env = child_environment(len(os.sched_getaffinity(0)))
        self.reference = reference_for(workload, self.config, seed)
        self.first_digest: str | None = None
        self.attempted = 0
        self.failed = 0

    def child(self, *flags: str) -> dict:
        """Start one child, wait for it, return its result JSON."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            done = subprocess.run(
                [sys.executable, str(CHILD), str(self.config_path), self.workload.mode,
                 str(self.seed), str(self.out_dir), str(result), *flags],
                stdout=out, stderr=err, env=self.env, cwd=self.root,
                timeout=CHILD_TIMEOUT_S,
            )
        if done.returncode != 0 or not result.exists():
            detail = (self.work / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchmarkError(f"child exited with {done.returncode}: {detail}")
        return json.loads(result.read_text())

    def setup_only(self) -> float:
        return self.child("--setup-only")["setup_s"]

    def run(self, traced: bool) -> dict | None:
        """One checked run; the child's result, None if the child crashed.

        A run whose outputs fail the check still has valid timings; it is
        counted in ``failed``.
        """
        self.attempted += 1
        try:
            result = self.child(*(["--trace"] if traced else []))
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            problems = [str(exc)]
            result = None
        else:
            if "error" in result:
                problems = [f"execute raised:\n{result['error']}"]
            else:
                problems = check_run(self.workload, self.config, self.out_dir,
                                     result["exit_code"], self.reference)
            if not problems:
                digest = output_digest(self.out_dir, self.work / "stdout.txt")
                if self.first_digest is None:
                    self.first_digest = digest
                elif digest != self.first_digest:
                    problems = ["outputs differ from this commit's first run"]
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(loop: Loop, seconds: float, trace: bool) -> dict[str, list[float]]:
    """Run the loop for ``seconds``; samples per metric over all runs."""
    samples: dict[str, list[float]] = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    started = time.monotonic()
    for iteration in itertools.count():
        began = time.monotonic()
        if trace:
            # An untraced and a traced run per pair, alternating which goes
            # first, so that a drifting machine speed does not bias the
            # paired overhead.
            order = (False, True) if iteration % 2 == 0 else (True, False)
            results = {traced: loop.run(traced) for traced in order}
            plain, traced = results[False], results[True]
            if plain is not None and traced is not None and "layers" in traced:
                add("wall_s", plain["wall_s"])
                add("trace.overhead_s", traced["wall_s"] - plain["wall_s"])
                for name, value in traced["layers"].items():
                    add(name, value)
        else:
            # A set-up-only child per run doubles the set-up samples, spread
            # over the same window as the runs.
            add("setup_s", loop.setup_only())
            result = loop.run(traced=False)
            if result is not None:
                for name in ("wall_s", "setup_s", "peak_rss_mb"):
                    add(name, result[name])
        now = time.monotonic()
        if now - started + (now - began) > seconds:
            return samples


def layer_values(samples: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer medians plus the overhead's share and robot throughput."""
    values = {name: statistics.median(v) for name, v in samples.items()}
    untraced = values.pop("wall_s")
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced
    values["robot_steps_per_s"] = values["robot_steps"] / untraced
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not (root / "src" / "ringform" / "cli.py").is_file():
        print(f"perfbench: no ringform sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        loop = Loop(root, WORKLOADS[args.workload], args.seed, work)
        loop.setup_only()  # compiles bytecode and warms the file cache, untimed
        samples = measure(loop, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "wall_s" not in samples:
        print("perfbench: no run produced timings", file=sys.stderr)
        return 1

    environment = describe_environment(root, args.seed, loop.env)
    values = layer_values(samples) if args.trace else {
        name: statistics.median(v) for name, v in samples.items()}
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        series = samples.get(name, [values[name]])
        q1, med, q3 = quartiles(series)
        print(f"{name:38s} {unit:14s} median {med:.6g}  p25 {q1:.6g}  "
              f"p75 {q3:.6g}  n {len(series)}")
    print(f"workload {args.workload}: {loop.attempted} runs, {loop.failed} failed, "
          f"expected exit {loop.workload.expected_exit}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  environment=environment, samples=samples)
    (root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
