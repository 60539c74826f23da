"""The shipped configs' outputs, byte for byte, against recorded digests.

Every ``configs/*.yaml`` runs through ``cli.main`` into a temporary
directory.  The SHA-256 of its stdout, its stderr and every output file,
and its exit code, must equal ``DIGESTS``.  ``manifest.json`` and
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


@pytest.mark.skipif(np.__version__ != NUMPY,
                    reason=f"digests recorded under numpy {NUMPY}, running {np.__version__}")
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_outputs_are_unchanged(tmp_path, name):
    assert run_digests(CONFIGS / f"{name}.yaml", tmp_path / "out") == DIGESTS[name]


def test_every_shipped_config_has_digests():
    assert sorted(DIGESTS) == sorted(path.stem for path in CONFIGS.glob("*.yaml"))


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {path.stem: run_digests(path, Path(tmp) / path.stem)
                 for path in sorted(CONFIGS.glob("*.yaml"))}
    print(f"NUMPY = {np.__version__!r}", file=sys.stderr)
    pprint.pprint(table, width=100, sort_dicts=True)
