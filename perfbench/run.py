"""lcrit benchmark: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload lscan --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The workloads and metric names are those
in BENCHMARK.json.  One process drives a closed loop: repetitions run one
after another, each in a fresh interpreter (perfbench/worker.py), so no
lcrit in-process cache carries over from one repetition to the next.
Repetitions continue while the next one still fits in --seconds; set-up
alone is then repeated until there are MIN_SETUP_SAMPLES set-up times.

--trace 0 reports the end-to-end metrics of untraced repetitions.  --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, with the tracing overhead (traced minus
untraced wall_s).  Every operation's output is checked; a failed check or
a library exception counts as a failed operation.  Documented known
defects count as failed but leave `correct` true; anything else makes it
false.

Standard output: one JSON line with the full report (machine, git revision,
seed, workload reason, per-operation failures), then the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _git_revision() -> str:
    """HEAD commit read from .git without starting git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine(backend: str) -> dict:
    import importlib.metadata as md

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "sympy", "mpmath"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "lcrit_backend": backend}


def _spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition of {workload} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition of {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["mode"] = mode
    res["setup_s"] = res["ready_wall"] - spawned
    return res


def _run_reps(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    reps = []
    while True:
        mode = "traced" if trace and len(reps) % 2 else "plain"
        t0 = time.perf_counter()
        reps.append(_spawn(workload, seed, mode, deadline))
        last = time.perf_counter() - t0
        need_traced = trace and not any(r["mode"] == "traced" for r in reps)
        if not need_traced and time.perf_counter() - start + last > seconds:
            break
    while len(reps) < MIN_SETUP_SAMPLES:
        reps.append(_spawn(workload, seed, "setup", deadline))
    return reps


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(measured: list[dict], all_reps: list[dict]) -> dict:
    ok = [sum(o["ok"] for o in r["ops"]) for r in measured]
    attempted = sum(len(r["ops"]) for r in measured)
    return {
        "setup_s": _median(r["setup_s"] for r in all_reps),
        "wall_s": _median(r["wall_s"] for r in measured),
        "ok_ops_per_s": _median(n / r["wall_s"] for n, r in zip(ok, measured)),
        "op_p50_ms": _median(r["p50_ms"] for r in measured),
        "op_tail_ms": _median(r["tail_ms"] for r in measured),
        "ok_frac": sum(ok) / attempted,
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in measured),
    }


def _per_layer(plain: list[dict], traced: list[dict], all_reps: list[dict]) -> dict:
    names = traced[0]["layers"].keys()
    out = {n: _median(r["layers"][n] for r in traced) for n in names}
    out.update({
        "setup.import_s": _median(r["import_s"] for r in all_reps),
        "setup.sieve_s": _median(r["sieve_s"] for r in all_reps),
        "setup.characters_s": _median(r["characters_s"] for r in all_reps),
        "process.cpu_s": _median(r["cpu_s"] for r in plain),
        "trace.overhead_s": _median(r["wall_s"] for r in traced)
        - _median(r["wall_s"] for r in plain),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lcrit", "__init__.py")):
        print(f"no lcrit sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"unknown workload {args.workload!r}; choose from {sorted(whys)}", file=sys.stderr)
        return 2

    try:
        reps = _run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    plain = [r for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "traced"]
    measured = traced if args.trace else plain
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = (_per_layer(plain, traced, reps) if args.trace
              else _end_to_end(plain, reps))
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1

    ops = [(i, o) for i, r in enumerate(measured) for o in r["ops"]]
    failures = [{"rep": i, "op": o["label"], "known": o["known"], "error": o["error"],
                 "problem": o["problem"]} for i, o in ops if not o["ok"]]
    report = {
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_revision": _git_revision(),
        "machine": _machine(reps[0]["backend"]),
        "repetitions": {"plain": len(plain), "traced": len(traced),
                        "setup_only": len(reps) - len(plain) - len(traced)},
        "ops_per_repetition": len(measured[0]["ops"]),
        "op_tail": {"percentile": measured[0]["tail_pct"],
                    "samples": len(measured[0]["ops"])},
        "failed_frac": len(failures) / len(ops),
        "failures": failures,
    }
    if args.workload == "aux_roots":
        report["newton_root_inside_inner_circle"] = [r["newton_inside"] for r in measured]
    if args.trace:
        report["missing_hooks"] = traced[0]["missing_hooks"]
    print(json.dumps(report))
    print(json.dumps({
        "correct": all(f["known"] for f in failures),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
