#!/usr/bin/env python3
"""Benchmark of the qcjkls command line, end to end and layer by layer.

One client in one process issues the commands of a workload to
``qcjkls.cli.main`` in a closed loop: each command starts after the
previous one returns.  The library is imported from ``src/`` next to
this directory, so run it from a checkout of the repository:

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20      # every workload, one table
    python3 bench/run.py --workload cache --trace 1       # per-layer numbers
    python3 bench/run.py --reference                      # the three baseline timings
    python3 bench/run.py --record-golden                  # rewrite golden.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 15

if not (SRC / "qcjkls" / "__init__.py").is_file():
    sys.exit(f"error: no qcjkls sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import qcjkls  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(qcjkls.__file__).resolve().parent != SRC / "qcjkls":
    sys.exit(f"error: imported qcjkls from {qcjkls.__file__}, not from {SRC}")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_tuple_letter"):
        return "ns"
    return "ratio" if name.endswith("_ratio") else "count"


PER_LAYER = {name: _layer_unit(name) for name in tracing.layer_metrics({}, {})}
PER_LAYER["trace.overhead_s"] = "s"

# Interpreter start, import and the default quandle and cocycle: what every
# command pays first.  The child reports when it is ready; its exit is not timed.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import qcjkls.cli; "
    "qcjkls.cli.build_s4_cocycle(); print('ready', flush=True)"
)


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from starting a fresh interpreter until it is ready for a command."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    env = {k: v for k, v in os.environ.items() if k != "QCJKLS_CACHE"}
    times = []
    for _ in range(repeats + 1):  # the first start writes bytecode and is not kept
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as child:
            ready = child.stdout.readline()
            times.append(perf_counter() - start)
            child.communicate(timeout=60)
        if ready != "ready\n" or child.returncode != 0:
            raise RuntimeError(f"setup child failed with exit code {child.returncode}")
    return times[1:]


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    results: list[workloads.Result]
    tracer: tracing.Tracer | None


def run_pass(workload: workloads.Workload, workdir: Path, tracer: tracing.Tracer | None = None) -> Pass:
    """Issue every command once, in order, from ``workdir``."""
    for name, data in workload.files.items():  # restores the cache file
        (workdir / name).write_bytes(data)
    gc.collect()
    latencies, results = [], []
    with tracer.installed() if tracer else nullcontext():
        start = perf_counter()
        for cmd in workload.commands:
            t0 = perf_counter()
            results.append(workloads.call(cmd.argv))
            latencies.append(perf_counter() - t0)
        wall = perf_counter() - start
    return Pass(wall, latencies, results, tracer)


def digest(result: workloads.Result) -> str:
    blob = f"{result.code}\n{result.error}\n{result.stdout}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def inputs_digest(workload: workloads.Workload) -> str:
    h = hashlib.sha256(json.dumps([c.argv for c in workload.commands]).encode("utf-8"))
    for name, data in sorted(workload.files.items()):
        h.update(name.encode("utf-8") + b"\0" + data)
    return h.hexdigest()[:16]


def typical_latencies(passes: list[Pass]) -> list[float]:
    """Each command's median latency over the passes.

    Percentiles and sums over these are not moved by a burst of machine
    noise that hits one pass.
    """
    return [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    return sorted(values)[ceil(0.9 * len(values)) - 1]


def golden_reasons(workload: workloads.Workload, results) -> list[str | None]:
    """Differences from the stdout recorded for the default seed."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload.name) if GOLDEN.is_file() else None
    if golden is None:
        return [None] * len(results)
    if golden["inputs"] != inputs_digest(workload):
        return ["inputs differ from the ones golden.json was recorded with"] * len(results)
    return [None if digest(r) == want else "stdout differs from golden.json" for r, want in zip(results, golden["stdout"])]


def check_warmup(workload, results) -> list[str | None]:
    reasons = workloads.check(workload, results)
    if workload.seed == DEFAULT_SEED:
        reasons = [a or b for a, b in zip(reasons, golden_reasons(workload, results))]
    return reasons


def measure(workload: workloads.Workload, workdir: Path, seconds: float, trace: bool) -> dict:
    """A warm-up pass that is checked, then timed passes for ``seconds``.

    With ``trace`` the timed passes alternate untraced and traced.  A
    timed command fails when its answer failed the checks in the warm-up
    pass or differs from the warm-up answer.
    """
    warm = run_pass(workload, workdir).results
    reasons = check_warmup(workload, warm)
    expected = [digest(r) for r in warm]
    del warm
    untraced: list[Pass] = []
    traced: list[Pass] = []
    attempted = failed = 0
    failures: dict[str, int] = {}
    start = perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(traced) < len(untraced) else None
        p = run_pass(workload, workdir, tracer)
        (traced if tracer else untraced).append(p)
        for cmd, res, reason, want in zip(workload.commands, p.results, reasons, expected):
            attempted += 1
            reason = reason or (None if digest(res) == want else "answer changed between passes")
            if reason:
                failed += 1
                key = f"{' '.join(cmd.argv)[:100]}: {reason}"
                failures[key] = failures.get(key, 0) + 1
        p.results.clear()  # kept outputs would grow peak memory with the number of passes
        longest = max(q.wall for q in untraced + traced)
        done = untraced and (traced or not trace)
        if done and perf_counter() - start + longest > seconds:
            break
    return {"untraced": untraced, "traced": traced, "attempted": attempted, "failed": failed, "failures": failures}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata() -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "qcjkls").glob("*.py")):
        sources.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_digest": sources.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "client": "closed loop, 1 client, 1 process",
    }


def _metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build, check and measure one workload; returns the full report."""
    workdir = BENCH / "_work" / f"{name}-{os.getpid()}"
    cwd = Path.cwd()
    try:
        workload = workloads.build(name, seed, workdir)
        setup = [] if trace else measure_setup()
        os.chdir(workdir)
        run = measure(workload, workdir, seconds, trace)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    untraced = run["untraced"]
    n_cmds = len(workload.commands)
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "meta": run_metadata(),
        "inputs_digest": inputs_digest(workload),
        "commands_per_pass": n_cmds,
        "passes": {"warmup": 1, "untraced": len(untraced), "traced": len(run["traced"])},
        "pass_walls_s": {"untraced": [p.wall for p in untraced], "traced": [p.wall for p in run["traced"]]},
        "attempted": run["attempted"],
        "failed": run["failed"],
        "fail_ratio": _metric(run["failed"] / run["attempted"], "ratio", base=run["attempted"]),
        "failures": run["failures"],
    }
    if not trace:
        per_command = typical_latencies(untraced)
        samples = f"{n_cmds} commands x {len(untraced)} passes"
        report["metrics"] = {
            "setup_s": _metric(statistics.median(setup), "s", samples=f"median of {len(setup)} interpreter starts"),
            "wall_s": _metric(sum(per_command), "s", samples=samples),
            "cmd_p50_ms": _metric(statistics.median(per_command) * 1e3, "ms", samples=samples),
            "cmd_p90_ms": _metric(p90(per_command) * 1e3, "ms", samples=samples),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", samples="whole process"),
        }
        return report
    traced = run["traced"]
    per_pass = [tracing.layer_metrics(p.tracer.self_s, p.tracer.counts) for p in traced]
    layers = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_s":
            value = sum(typical_latencies(traced)) - sum(typical_latencies(untraced))
        elif unit == "count":
            value = per_pass[0][metric]
        else:
            value = statistics.median(m[metric] for m in per_pass)
        layers[metric] = _metric(value, unit)
    traced_wall = sum(typical_latencies(traced))
    report["metrics"] = layers
    report["self_time_share"] = {
        layer: round(layers[f"{layer}_s"]["value"] / traced_wall, 4) for layer in tracing.LAYERS
    }
    report["ratio_bases"] = tracing.ratio_bases(traced[0].tracer.counts)
    report["counts_repeat"] = all(p.tracer.counts == traced[0].tracer.counts for p in traced)
    report["traced_wall_s"] = traced_wall
    report["untraced_wall_s"] = sum(typical_latencies(untraced))
    return report


def print_report(report: dict) -> None:
    p = report["passes"]
    print(f"workload {report['workload']}  seed {report['seed']}  inputs {report['inputs_digest']}  "
          f"commands/pass {report['commands_per_pass']}  passes: {p['untraced']} untraced, "
          f"{p['traced']} traced, 1 warm-up")
    for name, m in report["metrics"].items():
        note = m.get("samples", "")
        if name in report.get("ratio_bases", {}):
            note = f"base {report['ratio_bases'][name]}"
        share = report.get("self_time_share", {}).get(name[:-2]) if name.endswith("_s") else None
        if share is not None:
            note = f"{share:7.2%} of traced wall time"
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    fr = report["fail_ratio"]
    print(f"  {'fail_ratio':42s} {fr['value']:>16.6g} {'ratio':6s} {report['failed']} failed of {fr['base']} attempted")
    for failure, count in list(report["failures"].items())[:10]:
        print(f"    FAIL x{count}: {failure}")
    print("report: " + json.dumps(report, sort_keys=True))


def result_line(report: dict, names) -> str:
    metrics = {n: {"value": report["metrics"][n]["value"], "unit": report["metrics"][n]["unit"]} for n in names}
    return json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    reports = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=900).stdout
        lines = out.splitlines()
        print("\n".join(lines[:-2]))
        reports.append(json.loads(lines[-2][len("report: "):]))
    names = list(reports[0]["metrics"])
    print("\nworkload     " + " ".join(f"{n:>14s}" for n in names + ["fail_ratio"]))
    for r in reports:
        cells = [f"{r['metrics'][n]['value']:14.6g}" for n in names]
        cells.append(f"{r['failed']:>7d}/{r['attempted']:<6d}")
        print(f"{r['workload']:12s} " + " ".join(cells))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "workloads": {r["workload"]: {n: r["metrics"][n] for n in names} for r in reports},
    }))
    return 0


def reference() -> int:
    """The ROADMAP baselines, once each, with their work counts."""
    from qcjkls import (DEFAULT_BUDGET, FamilyId, build_s4, build_s4_cocycle, cjkls_state_sum,
                        family_braid, family_closed_f, is_reduced_closure)

    metrics, failed = {}, 0
    word = family_braid(FamilyId("Kn"), 11)
    start = perf_counter()
    z = cjkls_state_sum(word, build_s4(), build_s4_cocycle(), budget=DEFAULT_BUDGET)
    elapsed = perf_counter() - start
    work = 4**word.strands * len(word.letters)
    failed += tuple(z.coeffs) != workloads.family_expect("Kn", None, 11)[2]
    metrics["state_sum_kn11_s"] = _metric(elapsed, "s", work=f"{4**word.strands} tuples x {len(word.letters)} letters")
    metrics["state_sum_kn11_ns_per_tuple_letter"] = _metric(elapsed * 1e9 / work, "ns", base=work)

    word = family_braid(FamilyId("K0"), 40)
    start = perf_counter()
    reduced = is_reduced_closure(word)
    elapsed = perf_counter() - start
    failed += not reduced
    metrics["reduced_k0_40_s"] = _metric(elapsed, "s", work=f"{len(word.letters)} crossings")
    metrics["reduced_k0_40_crossings"] = _metric(len(word.letters), "count")

    family, ns = FamilyId("KPrime"), range(1, 3001)
    start = perf_counter()
    values = [family_closed_f(family, n) for n in ns]
    elapsed = perf_counter() - start
    terms = sum((n + 1) // 2 for n in ns)  # binomial_sums(ceil(n / 2)) per member
    failed += not all(map(workloads.close, sum(values, ()), sum((workloads.family_f("KPrime", None, n) for n in ns), ())))
    metrics["closed_f_kprime_3000_s"] = _metric(elapsed, "s", work=f"n=1..3000, {terms} binomial terms")
    metrics["closed_f_kprime_3000_binomial_terms"] = _metric(terms, "count")

    print(json.dumps({"reference": metrics, "meta": run_metadata()}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": 3, "failed": int(failed),
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}))
    return 0


def record_golden() -> int:
    """Record per-command stdout digests for the default seed (at a trusted commit)."""
    golden = {}
    cwd = Path.cwd()
    for name in workloads.WORKLOADS:
        workdir = BENCH / "_work" / f"golden-{name}-{os.getpid()}"
        try:
            workload = workloads.build(name, DEFAULT_SEED, workdir)
            os.chdir(workdir)
            results = run_pass(workload, workdir).results
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
        bad = [r for r in workloads.check(workload, results) if r]
        if bad:
            print(f"error: {name}: {len(bad)} answers fail the checks, e.g. {bad[0]}", file=sys.stderr)
            return 1
        golden[name] = {"inputs": inputs_digest(workload), "stdout": [digest(r) for r in results]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--reference", action="store_true", help="time the ROADMAP baselines once (minutes)")
    mode.add_argument("--record-golden", action="store_true", help="rewrite golden.json from the current code")
    args = parser.parse_args(argv)
    os.environ.pop("QCJKLS_CACHE", None)
    if args.reference:
        return reference()
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(result_line(report, PER_LAYER if args.trace else END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
