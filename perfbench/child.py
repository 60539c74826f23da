"""One ringform run in a fresh interpreter, the way the ``ringform`` CLI does it.

    python3 perfbench/child.py CONFIG MODE SEED OUT_DIR RESULT_JSON [--trace | --setup-only]

Set-up is ``import ringform.cli`` + ``load_config`` + the seed and output
overrides; then one ``execute(cfg)`` call is timed.  The result JSON holds
the exit code, both times and the peak RSS; with ``--trace`` it also
holds the per-layer numbers, and the spans go to ``spans.json`` next to
it.  ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _file_stats(paths) -> dict[str, tuple[int, int]]:
    stats = {}
    for path in paths:
        data = Path(path).read_bytes()
        stats[path] = (max(data.count(b"\n") - 1, 0), len(data))
    return stats


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space, in MiB.

    ``ru_maxrss`` would be wrong here: at exec, Linux carries the parent's
    resident set into the child's ``ru_maxrss``, so a parent holding more
    memory than the run hides the run's own peak.  ``VmHWM`` belongs to
    the address space created at exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("mode")
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("result")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--trace", action="store_true")
    group.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ringform.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ringform imported from {cli.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracing import ROOT, Tracer, layer_metrics

        tracer = Tracer(run_id=Path(args.result).stem)
        tracer.install()
    cfg = cli.load_config(args.config)
    if cfg.mode != args.mode:
        raise SystemExit(f"config mode {cfg.mode!r}, expected {args.mode!r}")
    cfg.seed = args.seed
    cfg.output_dir = args.out_dir
    result = {"setup_s": time.perf_counter() - started}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    root = tracer.begin(ROOT) if tracer else None
    started = time.perf_counter()
    try:
        result["exit_code"] = cli.execute(cfg)
    except Exception:  # a raising run is a failed run, reported to the parent
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - started
    if tracer:
        tracer.end(root)
        tracer.restore()
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer and "error" not in result:
        written = [e["path"] for name in ("write_csv", "write_manifest")
                   for e in tracer.observed.get(name, [])]
        result["layers"] = layer_metrics(tracer, _file_stats(written))
        (Path(args.result).parent / "spans.json").write_text(json.dumps(tracer.spans()))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
