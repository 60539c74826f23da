"""The shipped configs' outputs, byte for byte, against recorded digests.

Every ``configs/*.yaml`` runs through ``cli.main`` into a temporary
directory.  The SHA-256 of its stdout, its stderr and every output file,
and its exit code, must equal ``DIGESTS``.  The mappings in ``CASES``,
variants of the shipped configs that diverge or do not converge, and
runs whose automatic stop windows the shipped configs do not cover, are
held to ``CASE_DIGESTS`` the same way.  ``manifest.json`` and
``resolved_config.yaml`` are left out: they hold the wall time and the
output directory.  Floats may differ in the last bit from one numpy
version to another, so the test skips under any numpy but ``NUMPY``.

A change that alters the outputs on purpose records the table again and
says so:

    PYTHONPATH=src python tests/test_shipped_outputs.py
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml

from ringform import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
UNDIGESTED = {"manifest.json", "resolved_config.yaml"}

NUMPY = "2.4.6"
# Recorded at 44a94e5.
DIGESTS = {
    "estimate20": {
        "exit": 0,
        "stdout": "682cff657fbff2e12ec7ba78457463c1033573ec65d98240b1a6d90087bf4c1c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "estimate.csv": "bdd3425f53b5a3bafe33ed88e4e0a6cbe8d0ece913f1e2a44e9455b876dadf3c",
        },
    },
    "hexagon": {
        "exit": 0,
        "stdout": "f6d3e54d3366c13248dbb084a7c43fd8f22f0b8da6e144aef365db2737ce7d60",
        "stderr": "a2cbd9124b0534388002233ec20df63ab98cca8f8d74cc65a5666678a7695c08",
        "files": {
            "errors.csv": "672823a691986ca1c6adf4b77f65a282314c7f8e1f34a6318d20939bc88747a1",
            "estimate.csv": "488b7f86caf6b10aa26e1f9fcd4b8b439abd9af859205d9e150f3536c9999534",
            "trace.csv": "bfc7c55753da41777550048c0479be795961e107a547b2ee51d0b735201f1e90",
        },
    },
    "spectral19": {
        "exit": 0,
        "stdout": "1487dc0c3fdd3c9fb4f26b0ea316b6c461f14c7f6abe04517a9422e75a2ddb7a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "spectral.json": "1487dc0c3fdd3c9fb4f26b0ea316b6c461f14c7f6abe04517a9422e75a2ddb7a",
        },
    },
    "sweep_small": {
        "exit": 0,
        "stdout": "29bae05a74bdcd54bf5ab067dc1a536ab93c3b7800329b211c06e2db693cf121",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "sensitivity.csv": "6de8d0523c29c455f356a5f0f8e405b6e79fe5a7a3470b041b14858b97deae6f",
            "sweep.csv": "426099bfe46454af9d78166a3b53bfa001a8c69ca3fe993de52fa0bb4bc47ba3",
        },
    },
    "triangle": {
        "exit": 0,
        "stdout": "c64d4a4d5af47bb5ee3e09c07f84901c741c992c7e30ca5b155dab31f04d3967",
        "stderr": "2faf939b454f6a581d5fde3bb01c628f5f61c12294dd25d600cdf8791fc3495c",
        "files": {
            "errors.csv": "a19290e6241b1081114fae5a6be31acf22436158a95eb2233781b1c28125ed80",
            "estimate.csv": "211b1ac0fa067fe02593788980d239b0a6d3fb6b6f7e27593abb98532d4317a9",
            "trace.csv": "29ecc5cfb965f26ce6f835a88afc5c385549b662cf76d455929e94e2d3e7b448",
        },
    },
}


def _shipped(name: str, **changes) -> dict:
    return dict(yaml.safe_load((CONFIGS / f"{name}.yaml").read_text()), **changes)


def _phase1(**changes) -> dict:
    """The triangle's estimation section with ``changes``."""
    return dict(_shipped("triangle")["estimation"], **changes)


# The failure paths and the extra automatic windows, each with its exit code.
CASES = {
    # exit 3: the sigma = 2 formation diverges
    "triangle_form_diverges": _shipped("triangle", mode="form", alpha=1.5, sigma=2),
    # exit 3: the same, after phase 1
    "triangle_pipeline_diverges": _shipped("triangle", alpha=1.5, sigma=2),
    # exit 3: diverges at step 1 185, past the first output block
    "hexagon_pipeline_sigma2": _shipped("hexagon", sigma=2, max_steps=1300),
    # exit 4: phase 1 cannot settle in 52 steps
    "triangle_phase1_fails": _shipped("triangle", estimation=_phase1(max_steps=52,
                                                                     stop_window=50)),
    # exit 3: phase 1 diverges
    "triangle_phase1_diverges": _shipped("triangle", estimation=_phase1(alpha=1.9)),
    # exit 4: 2 500 steps are short of the hexagon's convergence
    "hexagon_form_stride7": _shipped("hexagon", mode="form", stride=7, max_steps=2500),
    # exit 4: six chains of 200 robots at the wide-ring benchmark's gains
    "ring1200_form": {
        "mode": "form", "alpha": 2.2184e-05, "dt": 0.05, "sigma": 1, "max_steps": 300,
        "stride": 100, "initial_box": 5.0,
        "topology": {"n_total": 1200, "vertex_set": [0, 200, 400, 600, 800, 1000]},
        "r_star": _shipped("hexagon")["r_star"],
    },
    # exit 0: 32 automatic stop windows, per-n scaled gains from n = 5 to 20
    "sweep_scaled_per_n": {
        "mode": "sweep", "seed": 3, "dt": 0.01,
        "sweep": {"n_min": 5, "n_max": 20, "reps": 2, "scale_per_n": True},
    },
    # exit 0: gains scaled at the largest n, and an order-1 sensitivity chain
    "sweep_fixed_gains": {
        "mode": "sweep", "seed": 5, "dt": 0.01,
        "sweep": {"n_min": 2, "n_max": 9, "reps": 3, "scale_per_n": False},
    },
    # exit 0: the lagged (S2) estimator's automatic stop window
    "estimate30_s2": {
        "mode": "estimate", "seed": 3, "strategy": "S2", "max_steps": 60000,
        "topology": {"n_total": 30},
    },
}

# Recorded at 11741a8; estimate30_s2 and sweep_scaled_per_n at 7efebbc;
# sweep_fixed_gains at a0ac1c0.
CASE_DIGESTS = {
    "estimate30_s2": {
        "exit": 0,
        "stdout": "6c36754aae39215508c7b959882c7468cfa153404ea2317ef398b9e6ddccaa49",
        "stderr": "c021915f8a9ed7b2d22a8a314f7f0c84da4c88de59985ff29a4eca780af5cb47",
        "files": {
            "estimate.csv": "db8b96529a81c66486689bb3c27be31686a979dfc7a0608e36868dc75dd9d35e",
        },
    },
    "hexagon_form_stride7": {
        "exit": 4,
        "stdout": "119af2cd9f52e9c7a55f417305882b7cd1d84d83960a9e92ee04076c5be9375d",
        "stderr": "a2cbd9124b0534388002233ec20df63ab98cca8f8d74cc65a5666678a7695c08",
        "files": {
            "errors.csv": "16d704d072e2114649f0c4d09da69af02404831a09a5034a0a34a25195ad32c2",
            "trace.csv": "adb634e62a9bdf2a02ebf53b8f886486f1d10172872be2daf0739c47cfbb9ba6",
        },
    },
    "hexagon_pipeline_sigma2": {
        "exit": 3,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "ccb3e0c22d30d7850f89e150f93ab11874eeca998fdce245b8377c83d8d4dd4b",
        "files": {
            "errors.csv": "6e2da1cf3a242a249f72725e2cb090b1160da951c0ad65585e09d2912e525440",
            "estimate.csv": "488b7f86caf6b10aa26e1f9fcd4b8b439abd9af859205d9e150f3536c9999534",
            "trace.csv": "899d448ad86586ba6259db69671e2b400a272752255952d0471453cb693c97ee",
        },
    },
    "ring1200_form": {
        "exit": 4,
        "stdout": "76bebf3c6bcf98bb67481fd2872468f5985ede9fd4e1983f4c9c93631cb3e9d4",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "errors.csv": "90fc1539975c45bd255a31e6672bdd74032dd48cecf829787b194a587d4b6924",
            "trace.csv": "58ebc00f983198e792a1bfd40c25b0a7e018c4c3d565b2599799c3f268e5aeed",
        },
    },
    "triangle_form_diverges": {
        "exit": 3,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "4428ffc7ed6d440e7081412436411865aecf45e53ff7ecee9ae55b4f28cbf815",
        "files": {
            "errors.csv": "a0be1b472ab26df3c88706f31fd1ce8e219be1743403ffd814a04189d5221537",
            "trace.csv": "4c464630cb8d1e3b7c429049a6c8dbfda53851a057ac1f757d0ac9c6db480872",
        },
    },
    "triangle_phase1_diverges": {
        "exit": 3,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "26e9a5865a255836bc245832fb8046dc1c83b059cf87cd7f49a8779a9d0a9940",
        "files": {
            "estimate.csv": "18e05cbc79520f9c595b329c5829eff9982fd6802c94389d866eb2466ac4c452",
        },
    },
    "triangle_phase1_fails": {
        "exit": 4,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "aa2b888d346f847dfc1010f573a2b1ec255f6173a1a022eec427c0f30606dd66",
        "files": {
            "estimate.csv": "da0106fe20d91ab6600e09b5a509abb3a5ec4e6f51c9f7f886c92bd8359191ff",
        },
    },
    "triangle_pipeline_diverges": {
        "exit": 3,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "4ce0e9582cf538b8766d4c85ee1cd6288bc3459d58e3e5f61f4a2dea69562933",
        "files": {
            "errors.csv": "a0be1b472ab26df3c88706f31fd1ce8e219be1743403ffd814a04189d5221537",
            "estimate.csv": "211b1ac0fa067fe02593788980d239b0a6d3fb6b6f7e27593abb98532d4317a9",
            "trace.csv": "4c464630cb8d1e3b7c429049a6c8dbfda53851a057ac1f757d0ac9c6db480872",
        },
    },
    "sweep_fixed_gains": {
        "exit": 0,
        "stdout": "ba5ea76099d7a5386e195346a97ea3b3f0b75f71e7eb1aa00509ea39bb151255",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "sensitivity.csv": "f4a54436fdb8019a279021e3b5246b71063cd9170f1cc364cbd3b6f158fae384",
            "sweep.csv": "94a7448d3ceec3610049dbf46e83be96fbd93f95a1f45739ebce3faa87cf6241",
        },
    },
    "sweep_scaled_per_n": {
        "exit": 0,
        "stdout": "55c7146e335f816daf0cb08dbecc49b8a024b69aedb522dd65b842c4cfd05d1c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "sensitivity.csv": "a255ab1a02d64dfe4f62b8e1c32d5b23f0405c34f602fe1e45452a9b1ec866df",
            "sweep.csv": "b9703d121b60461a3985e0260c8f1ddff06cf5c5c4bc19f77bffee73aff2531a",
        },
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(config: Path, out_dir: Path) -> dict:
    """Exit code and SHA-256 of stdout, stderr and each output file of one
    CLI run of ``config`` into ``out_dir``."""
    mode = yaml.safe_load(config.read_text())["mode"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main([mode, "--config", str(config), "--out", str(out_dir)])
    files = {path.name: _sha256(path.read_bytes()) for path in sorted(out_dir.iterdir())
             if path.name not in UNDIGESTED}
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode()),
            "stderr": _sha256(stderr.getvalue().encode()), "files": files}


def case_digests(name: str, tmp: Path) -> dict:
    """``run_digests`` of the mapping ``CASES[name]``, written under ``tmp``."""
    config = tmp / f"{name}.yaml"
    config.write_text(yaml.safe_dump(CASES[name]))
    return run_digests(config, tmp / name)


@pytest.mark.skipif(np.__version__ != NUMPY,
                    reason=f"digests recorded under numpy {NUMPY}, running {np.__version__}")
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_outputs_are_unchanged(tmp_path, name):
    assert run_digests(CONFIGS / f"{name}.yaml", tmp_path / "out") == DIGESTS[name]


@pytest.mark.skipif(np.__version__ != NUMPY,
                    reason=f"digests recorded under numpy {NUMPY}, running {np.__version__}")
@pytest.mark.parametrize("name", sorted(CASES))
def test_failure_case_outputs_are_unchanged(tmp_path, name):
    assert case_digests(name, tmp_path) == CASE_DIGESTS[name]


def test_every_shipped_config_has_digests():
    assert sorted(DIGESTS) == sorted(path.stem for path in CONFIGS.glob("*.yaml"))


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {path.stem: run_digests(path, Path(tmp) / path.stem)
                 for path in sorted(CONFIGS.glob("*.yaml"))}
        cases = {name: case_digests(name, Path(tmp)) for name in sorted(CASES)}
    print(f"NUMPY = {np.__version__!r}", file=sys.stderr)
    pprint.pprint(table, width=100, sort_dicts=True)
    pprint.pprint(cases, width=100, sort_dicts=True)
