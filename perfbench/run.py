"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload text_rank --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the program from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name
every metric with its unit and sample count, the machine facts and the
error rate.  Every answer is checked; a wrong answer or a failed
operation makes the command exit with status 1.  Scratch files live
under ``.perfbench/`` in the checkout and are removed at exit, except
the per-run record and, for a traced run, its spans.

See ``perfbench/README.md`` for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("text_rank", "service_mix", "ingest")


def _isolate(root: Path) -> Path:
    """Keep every file the run writes inside the checkout and run the
    program under its shipped policies (no ``REPRO_*`` overrides; in
    particular ``REPRO_WAL_GROUP_MS`` unset, so each mutation's WAL
    record is fsynced without waiting for others)."""
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    return tmp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    tmp = _isolate(root)
    try:
        return _run(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, root: Path, tmp: Path) -> int:
    import harness
    from measure import machine_facts, peak_rss_mb

    ctx = harness.Context(args.workload, args.seed, args.seconds,
                          bool(args.trace), tmp)
    if args.workload == "text_rank":
        import retrieval as module
    elif args.workload == "service_mix":
        import service_mix as module
    else:
        import ingest as module
    module.run(ctx)
    if not ctx.trace:
        ctx.metric("peak_rss_mb", peak_rss_mb(), "MB")

    expected = _declared_metrics(root, "per_layer" if ctx.trace else "end_to_end")
    missing = [name for name in expected if name not in ctx.metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {
        name: {"value": ctx.metrics[name][0], "unit": ctx.metrics[name][1]}
        for name in expected
    }
    error_rate = ctx.failed / max(1, ctx.attempted)
    facts = {
        **machine_facts(),
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "error_rate": error_rate,
        **getattr(module, "FACTS", {}),
    }
    out = root / ".perfbench" / "results"
    stem = f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}"
    record = {"facts": facts, "notes": ctx.notes, "metrics": metrics}
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if ctx.trace:
        ctx.tracer.write(out / f"{stem}-spans.jsonl")

    for key, value in facts.items():
        print(f"# {key}: {value}")
    for key, value in ctx.notes.items():
        print(f"# {key}: {value}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate = {error_rate:.6g} ratio "
          f"({ctx.failed} of {ctx.attempted} operations failed)")
    correct = ctx.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0 if correct and ctx.failed == 0 else 1


def _declared_metrics(root: Path, kind: str):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec[kind]]


if __name__ == "__main__":
    sys.exit(main())
