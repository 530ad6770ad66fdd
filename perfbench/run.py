"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload encode_gop8 --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the checkout. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its
per-layer metrics (from a traced pass compared with an untraced pass
over the same work) and writes the spans under ``.perfbench_out/``.
Two lines before it carry the host facts and the workload's own report
(the metrics under their per-workload names, digests of the simulated
results and the output checks).

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the run could not start: no
program under ``src/``, a bad argument, or too few cores for the
workload.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    PeakRss,
    Result,
    SetupError,
    eprint,
    host_cores,
    library_versions,
    stop_children,
)

#: Workload name -> module implementing it.
WORKLOADS = {
    "encode_gop8": "wl_encode",
    "sched_jitter": "wl_sched",
    "fleet_hetero": "wl_fleet",
}


def _args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def _import_program() -> None:
    """Import everything any workload uses; raises ImportError if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    for name in ("repro", "repro.cluster", "repro.exec.backend",
                 "repro.video.generator"):
        importlib.import_module(name)


def _spec_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str]) -> int:
    args = _args(argv)
    try:
        _import_program()
    except ImportError as exc:
        eprint(f"error: {exc}")
        return 2
    import_s = time.perf_counter() - T_START
    module = importlib.import_module(WORKLOADS[args.workload])

    res = Result()
    rss = PeakRss()
    trace = bool(args.trace)
    try:
        out = module.run(args.seed, args.seconds, trace, res, import_s, rss)
    except SetupError as exc:
        eprint(f"error: {exc}")
        return 2

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cores": host_cores(),
        "workers": out.get("workers", 0),
        **library_versions(),
    }
    if trace:
        units = _spec_metrics("per_layer")
        values = out["per_layer"]
        unknown = sorted(set(values) - set(units))
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        # A layer the workload does not run reports zero.
        for name, unit in units.items():
            res.metric(name, values.get(name, 0.0), unit)
        out["tracer"].write(
            OUT_DIR / f"{args.workload}-seed{args.seed}",
            {"host": facts, "report": res.report, "per_layer": values},
        )
    else:
        res.metric("peak_rss_mb", rss.mb(), "MB")
        res.report["peak_rss_mb"] = [rss.mb(), "MB"]
        units = _spec_metrics("end_to_end")
        if set(res.metrics) != set(units) or any(
            units[n] != u for n, (_v, u) in res.metrics.items()
        ):
            raise KeyError("end-to-end metrics differ from BENCHMARK.json")

    print(json.dumps({"host": facts}))
    print(json.dumps({"report": res.report, "problems": res.problems}))
    print(res.final_line(), flush=True)
    if res.failed:
        eprint(f"error: {res.failed} of {res.attempted} operations failed "
               "their output check")
        return 1
    return 0


def _terminate(signum: int, _frame: object) -> None:
    # Unwind through the ``finally`` blocks so workers are stopped too.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main(sys.argv[1:])
    finally:
        stop_children()
    sys.exit(code)
