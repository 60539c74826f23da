"""The benchmark's workloads and the check of each run's outputs.

A workload is a ringform config plus the exit code its run must return.
The seed reaches the program only as the config's ``seed``.  The checks
read the output files alone and compare physics against closed forms, an
independent reference simulation or values recorded on the commit that
added the benchmark, each within a stated tolerance, so that a change
which reorders floating-point sums (about 1e-13 drift) still passes.
Byte-identity holds only between runs of one commit and is checked by the
runner.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

# Criterion 9 of the acceptance suite: simulated steady ratios match the
# closed forms to this absolute tolerance.
SENSITIVITY_TOL = 1e-6

# Relative tolerance between the wide ring's final max edge error and
# the reference simulation below.  The ring is stable, so reordered sums
# move the result by ~1e-13 relative, far inside this.
FORMATION_RTOL = 1e-9

# Spectral radii of the spectral_large matrices (n' = 400, alpha = 0.5,
# dt = 0.01), recorded with ringform 0.1.0, numpy 2.4.6 and OpenBLAS
# 0.3.31 when the benchmark was added.  The config holds no seed, so they
# hold for every seed.
SPECTRAL_REFERENCE = {
    "rho_A": 0.999984732244954,
    "rho_Ar": 1.0024939998018385,
    "rho_Af": 0.9999961639599226,
}
SPECTRAL_RTOL = 1e-9

HEXAGON_R_STAR = [[-4.0, -8.0], [-8.0, 0.0], [-4.0, 8.0],
                  [4.0, 8.0], [8.0, 0.0], [4.0, -8.0]]


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    expected_exit: int
    # Either a shipped config file (relative to the repo root) or a
    # mapping owned by the benchmark.
    config_file: str | None = None
    config: dict = field(default_factory=dict)

    def resolved(self, root: Path) -> dict:
        if self.config_file is not None:
            return yaml.safe_load((root / self.config_file).read_text())
        return dict(self.config)


WORKLOADS = {
    w.name: w for w in (
        Workload("hexagon", "pipeline", 0, config_file="configs/hexagon.yaml"),
        Workload("sweep", "sweep", 0, config={
            "mode": "sweep",
            "dt": 0.01,
            "sweep": {"n_min": 5, "n_max": 20, "reps": 2, "scale_per_n": True},
        }),
        # Six chains of 2 000 robots with alpha*dt at 0.9 of the S1
        # sufficient bound for a 2 000-robot chain; 4 000 steps are far
        # shorter than the chains' decay time, hence exit 4.
        Workload("wide_ring", "form", 4, config={
            "mode": "form",
            "alpha": 2.2184e-05,
            "dt": 0.05,
            "sigma": 1,
            "max_steps": 4000,
            "stride": 500,
            "initial_box": 5.0,
            "topology": {"n_total": 12000,
                         "vertex_set": [0, 2000, 4000, 6000, 8000, 10000]},
            "r_star": HEXAGON_R_STAR,
        }),
        Workload("spectral_large", "spectral", 0, config={
            "mode": "spectral",
            "alpha": 0.5,
            "dt": 0.01,
            "n_prime": 400,
        }),
    )
}


# --- reading outputs --------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def count_rows(path: Path) -> int:
    """Data rows of a CSV file: its lines minus the header."""
    with open(path, "rb") as handle:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
    return max(lines - 1, 0)


def _segment_sizes(config: dict) -> list[int]:
    n = config["topology"]["n_total"]
    vertices = config["topology"]["vertex_set"]
    m = len(vertices)
    return [(vertices[(i + 1) % m] - vertices[i]) % n for i in range(m)]


def _snapshot_count(horizon: int, stride: int) -> int:
    return horizon // stride + 1 + (1 if horizon % stride else 0)


def _check_formation_files(out: Path, config: dict, problems: list[str]) -> None:
    """Trace and errors CSVs have one row per robot snapshot / edge step."""
    n = config["topology"]["n_total"]
    m = len(config["topology"]["vertex_set"])
    horizon = config["max_steps"]
    stride = config.get("stride", 1)
    expected = {
        "trace.csv": _snapshot_count(horizon, stride) * n,
        "errors.csv": (horizon + 1) * m,
    }
    for name, rows in expected.items():
        if not (out / name).exists():
            problems.append(f"{name} missing")
            continue
        found = count_rows(out / name)
        if found != rows:
            problems.append(f"{name} has {found} rows, expected {rows}")


def final_max_error(out: Path, config: dict) -> float:
    """Largest edge error at the last step, read from errors.csv."""
    m = len(config["topology"]["vertex_set"])
    with open(out / "errors.csv", newline="") as handle:
        last = list(deque(csv.reader(handle), maxlen=m))
    if len(last) != m or len({row[0] for row in last}) != 1:
        raise ValueError("errors.csv does not end with one complete step")
    return max(float(row[3]) for row in last)


# --- checks ------------------------------------------------------------------


def check_pipeline(out: Path, config: dict, reference=None) -> list[str]:
    """Each chain estimates its true size; row counts match the config."""
    problems: list[str] = []
    sizes = _segment_sizes(config)
    if not (out / "estimate.csv").exists():
        return ["estimate.csv missing"]
    header, body = read_csv(out / "estimate.csv")
    col = {name: i for i, name in enumerate(header)}
    per_chain: dict[int, list[list[str]]] = {}
    for row in body:
        per_chain.setdefault(int(row[col["chain_id"]]), []).append(row)
    if sorted(per_chain) != list(range(len(sizes))):
        problems.append(f"estimate.csv chains {sorted(per_chain)}, "
                        f"expected 0..{len(sizes) - 1}")
    for chain_id, size in enumerate(sizes):
        rows = per_chain.get(chain_id, [])
        steps = [int(r[col["step"]]) for r in rows]
        done = [r for r in rows if r[col["converged"]] == "true"]
        if steps != list(range(1, len(steps) + 1)) or len(done) != 1 \
                or int(done[0][col["step"]]) != len(steps):
            problems.append(f"chain {chain_id}: estimate rows are not steps "
                            f"1..stop with one converged row at the stop")
        elif int(done[0][col["estimate_rounded"]]) != size:
            problems.append(f"chain {chain_id}: estimate "
                            f"{done[0][col['estimate_rounded']]}, true size {size}")
    _check_formation_files(out, config, problems)
    return problems


def check_sweep(out: Path, config: dict, reference=None) -> list[str]:
    """Every cell is exact; simulated ratios match the closed forms."""
    problems: list[str] = []
    sweep = config["sweep"]
    for name in ("sweep.csv", "sensitivity.csv"):
        if not (out / name).exists():
            return [f"{name} missing"]
    header, body = read_csv(out / "sweep.csv")
    col = {name: i for i, name in enumerate(header)}
    cells = sorted((int(r[col["n"]]), r[col["strategy"]]) for r in body)
    expected = [(n, s) for n in range(sweep["n_min"], sweep["n_max"] + 1)
                for s in ("S1", "S2")]
    if cells != expected:
        problems.append(f"sweep.csv holds {len(cells)} cells, expected {len(expected)}")
    wrong = [f"n={r[col['n']]} {r[col['strategy']]}" for r in body
             if r[col["all_correct"]] != "true"]
    if wrong:
        problems.append(f"sweep cells not all correct: {', '.join(wrong)}")
    header, body = read_csv(out / "sensitivity.csv")
    col = {name: i for i, name in enumerate(header)}
    orders = [int(r[col["n_prime"]]) for r in body]
    if orders != list(range(max(sweep["n_min"] - 1, 1), sweep["n_max"])):
        problems.append(f"sensitivity.csv orders {orders}")
    for r in body:
        for s in ("s1", "s2"):
            gap = abs(float(r[col[f"ratio_{s}_sim"]]) - float(r[col[f"ratio_{s}_closed"]]))
            if not gap < SENSITIVITY_TOL:
                problems.append(f"n'={r[col['n_prime']]} {s.upper()}: "
                                f"|sim - closed| = {gap:.3e}")
    return problems


def check_form(out: Path, config: dict, reference: float) -> list[str]:
    """Row counts match; the final error matches the reference simulation."""
    problems: list[str] = []
    _check_formation_files(out, config, problems)
    if problems:
        return problems
    final = final_max_error(out, config)
    if not math.isclose(final, reference, rel_tol=FORMATION_RTOL):
        problems.append(f"final max edge error {final!r}, reference {reference!r}")
    return problems


def check_spectral(out: Path, config: dict, reference=None) -> list[str]:
    """Each spectral radius matches the recorded value."""
    path = out / "spectral.json"
    if not path.exists():
        return ["spectral.json missing"]
    report = json.loads(path.read_text())
    problems = []
    for key, value in SPECTRAL_REFERENCE.items():
        got = report.get(key)
        if not isinstance(got, float) or not math.isclose(got, value, rel_tol=SPECTRAL_RTOL):
            problems.append(f"{key} = {got!r}, recorded {value!r}")
    return problems


def formation_reference(config: dict, seed: int) -> float:
    """Final max edge error of a form-mode run, simulated independently.

    Written from the formation law: interior robots chase the midpoint of
    their ring neighbours and average their (lag-``sigma``) velocities;
    vertex j >= 1 tracks its predecessor at r*_{j-1} / n_{j-1}; vertex 0
    stays pinned.  The placement is the (seed, 0) Philox stream, uniform
    in the initial box.
    """
    n = config["topology"]["n_total"]
    vertices = np.array(config["topology"]["vertex_set"])
    r_star = np.array(config["r_star"], dtype=float)
    alpha, dt = config["alpha"], config["dt"]
    lag = config.get("sigma", 1)
    spacing = r_star / np.array(_segment_sizes(config), dtype=float)[:, None]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    q = config["initial_box"] * (2.0 * rng.random((n, 2)) - 1.0)
    v = np.zeros_like(q)
    v_old = np.zeros_like(q)
    tracking = vertices[1:]
    behind = tracking - 1
    for _ in range(config["max_steps"]):
        heard = v if lag == 1 else v_old
        new_v = (0.5 * alpha * (np.roll(q, -1, axis=0) + np.roll(q, 1, axis=0) - 2.0 * q)
                 + 0.5 * (np.roll(heard, -1, axis=0) + np.roll(heard, 1, axis=0)))
        new_v[tracking] = alpha * (q[behind] - q[tracking] - spacing[:-1]) + heard[behind]
        new_v[vertices[0]] = 0.0
        q = q + dt * v
        v_old, v = v, new_v
    edges = q[vertices] - q[np.roll(vertices, -1)]
    return float(np.linalg.norm(edges - r_star, axis=1).max())


CHECKS: dict[str, Callable[[Path, dict, object], list[str]]] = {
    "pipeline": check_pipeline,
    "sweep": check_sweep,
    "form": check_form,
    "spectral": check_spectral,
}


def reference_for(workload: Workload, config: dict, seed: int):
    """Seed-dependent expected value a check needs, computed before timing."""
    if workload.mode == "form":
        return formation_reference(config, seed)
    return None


def check_run(workload: Workload, config: dict, out: Path, exit_code: int,
              reference) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct."""
    problems = []
    if exit_code != workload.expected_exit:
        problems.append(f"exit code {exit_code}, expected {workload.expected_exit}")
    try:
        problems += CHECKS[workload.mode](out, config, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
