"""contrastmap benchmark: one seeded workload per run, untraced or traced.

    python3 perfbench/run.py --workload pairclf --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

Run from the root of a checkout; the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it give
the environment, the input sizes, every end-to-end metric of the workload
(``report``) and, when traced, metrics that could not be measured and why.
``--workload all`` runs every workload untraced, each in a fresh process,
and prints one table. See README.md for the workloads and what each metric
should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench_state"
WORKLOAD_NAMES = ("pairclf", "train-map", "vocab-cli")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# counts that must repeat exactly across every traced run of one seed
EXACT_COUNTS = ("network.backward_calls", "training.epochs", "pairs.triplets",
                "embeddings.lookup_calls", "evaluation.featurize_calls",
                "boosting.leaves", "embeddings.rows_parsed")


def _pin_to_one_cpu() -> None:
    """One BLAS thread on one CPU: the run is single-threaded and steady.

    With two OpenBLAS threads on two CPUs, any other runnable process makes
    the spinning BLAS threads collapse throughput, and an unpinned process
    migrating between CPUs roughly doubled the pass-to-pass spread.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(os.environ[BLAS_ENV[0]]),
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def code_hash() -> str:
    """Hash of the program and benchmark sources: the ledger's key."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Deterministic values per (workload, seed, code), kept across runs."""

    def __init__(self, path: Path):
        self.path = path
        self.doc = json.loads(path.read_text()) if path.is_file() else {}

    def compare_and_store(self, key: str, values: dict) -> tuple[str, bool] | None:
        """Check ``values`` against earlier runs; None when nothing to compare."""
        earlier = self.doc.get(key, {})
        shared = sorted(set(earlier) & set(values))
        self.doc[key] = {**values, **earlier}
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.doc, sort_keys=True, indent=1))
        tmp.replace(self.path)
        if not shared:
            return None
        return ("deterministic values repeat earlier runs of this seed",
                all(earlier[k] == values[k] for k in shared))


def _median(xs) -> float:
    return float(statistics.median(xs))


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from tracing import NULL, TARGETS, Phase, Spans, installed, layer_metrics, peak_rss_mb
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    run_id = f"{name}-s{seed}-t{int(traced)}-{time.time_ns()}"
    missing: dict[str, str] = {}
    work = STATE / "work" / name

    setup_times, setup_phases = [], []
    for _ in range(1 if traced else w.setup_repeats):
        phase = Phase("setup") if traced else NULL
        with installed(TARGETS, phase, missing):
            t0 = time.perf_counter()
            state = w.setup(seed, work)
            setup_times.append(time.perf_counter() - t0)
        setup_phases.append(phase)
    sizes = w.sizes(state)

    # Traced runs alternate traced and untraced passes: the difference of
    # their medians is the tracing overhead.
    passes = []
    measured = 0.0
    while measured < seconds or (traced and len(passes) < 2):
        phase = Phase(f"pass{len(passes)}") if traced and len(passes) % 2 == 0 else NULL
        with installed(TARGETS, phase, missing):
            t0 = time.perf_counter()
            out = w.run_pass(state, phase)
            wall = time.perf_counter() - t0
        measured += wall
        passes.append({"wall": wall, "phase": phase, "out": out,
                       "inspection": w.inspect(state, out, phase)})
    peak_rss = peak_rss_mb()
    shutil.rmtree(work, ignore_errors=True)

    first = passes[0]["inspection"]
    checks = [c for p in passes for c in p["inspection"].checks]
    for i, p in enumerate(passes[1:], start=1):
        same = (p["inspection"].quality == first.quality
                and p["inspection"].fingerprint == first.fingerprint)
        checks.append((f"pass {i} repeats pass 0 exactly", same))
    traced_passes = [p for p in passes if p["phase"].traced]
    for i, p in enumerate(traced_passes[1:], start=1):
        checks.append((f"traced pass {i} counts repeat traced pass 0",
                       p["phase"].counts == traced_passes[0]["phase"].counts))

    result = {"run_id": run_id, "workload": name, "seed": seed, "traced": traced,
              "environment": environment(),
              "sizes": sizes, "setup_s": setup_times,
              "pass_wall_s": [p["wall"] for p in passes], "missing": {}}
    deterministic = {"quality": first.quality}
    if traced:
        layers = layer_metrics(Spans(setup_phases + [traced_passes[0]["phase"]]),
                               Spans(setup_phases + [p["phase"] for p in traced_passes]),
                               w.spaces(state))
        metrics = {}
        for metric, (value, unit, sources) in layers.items():
            reasons = [f"{s}: {missing[s]}" for s in sources if s in missing]
            if reasons:
                result["missing"][metric] = "; ".join(reasons)
                value = 0.0
            metrics[metric] = (value, unit)
        untraced = [p["wall"] for p in passes if not p["phase"].traced]
        traced_walls = [p["wall"] for p in traced_passes]
        metrics["trace.overhead_s"] = (_median(traced_walls) - _median(untraced), "s")
        metrics["trace.spans"] = (sum(len(ph.spans) for ph in setup_phases)
                                  + len(traced_passes[0]["phase"].spans), "count")
        deterministic["counts"] = {k: metrics[k][0] for k in EXACT_COUNTS
                                   if k not in result["missing"]}
        result["phases"] = [ph.to_dict() for ph in setup_phases + [p["phase"] for p in traced_passes]]
    else:
        metrics = {"wall_s": (_median([p["wall"] for p in passes]), "s"),
                   "setup_s": (_median(setup_times), "s"),
                   "peak_rss_mb": (peak_rss, "MB")}

    ledger = Ledger(STATE / "ledger.json")
    ledger_check = ledger.compare_and_store(f"{name}|{seed}|{code_hash()}", deterministic)
    if ledger_check is not None:
        checks.append(ledger_check)

    failed = [label for label, ok in checks if not ok]
    if not traced:
        metrics["pass_ratio"] = (1.0 - len(failed) / len(checks), "fraction")
        report = dict(metrics)
        report["fail_ratio"] = (len(failed) / len(checks), "fraction")
        units = w.REPORT_UNITS
        extra = {**first.quality, **w.timings([p["out"] for p in passes])}
        report.update({k: (v, units[k]) for k, v in extra.items()})
        result["report"] = report
    result.update(checks=checks, failed_checks=failed, metrics=metrics)
    return result


def _print_result(result: dict) -> None:
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{result['run_id']}.json").write_text(json.dumps(result, default=str))
    print("env " + json.dumps(result["environment"], sort_keys=True))
    print("sizes " + json.dumps(result["sizes"], sort_keys=True))
    if "report" in result:
        print("report " + json.dumps({k: {"value": v, "unit": u}
                                      for k, (v, u) in result["report"].items()}))
    if result["missing"]:
        print("missing " + json.dumps(result["missing"], sort_keys=True))
    for label in result["failed_checks"]:
        print(f"FAILED CHECK: {label}")
    print(json.dumps({"correct": not result["failed_checks"],
                      "attempted": len(result["checks"]),
                      "failed": len(result["failed_checks"]),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in result["metrics"].items()}}))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in a fresh process; one table of metrics."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        report = [json.loads(l[len("report "):]) for l in lines if l.startswith("report ")]
        if proc.returncode != 0 or not report:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed (exit {proc.returncode})")
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
        rows += [(name, k, m["value"], m["unit"]) for k, m in report[0].items()]
    print(f"{'workload':<11}{'metric':<22}{'value':>16}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<11}{metric:<22}{value:>16.6g}  {unit}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "contrastmap" / "__init__.py").is_file():
        print(f"no contrastmap sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _pin_to_one_cpu()  # before numpy is first imported
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(ROOT / "src"))
    STATE.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
