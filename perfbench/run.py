"""The repository benchmark: one command per workload run.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload <name> --seed 0 --record   # rewrite recorded answers

Builds the program and the harness (perfbench/build.py), runs the workload
in one JVM, checks every solve's answer, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The full report, with provenance, per-solve times and input sizes, is written
to $CARGO_TARGET_DIR/perfbench/results/.
"""
import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import answers  # noqa: E402
import build  # noqa: E402

WORKLOADS = ("newsea_wiki", "ingest_allinits_dblp")
HEAP = "3g"  # pinned: -Xms = -Xmx, the same in every run
RUN_LIMIT_S = 170  # a run ends within 180 s; one that compiles first, within 900 s
FIRST_RUN_LIMIT_S = 880
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def slots():
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return n, min(n, 4)


def run_jvm(root, classes, args, limit_s):
    out = build.out_dir(root)
    for d in ("spark-local", "tmp"):
        (out / d).mkdir(parents=True, exist_ok=True)
    nproc, k = slots()
    env = dict(os.environ, SPARK_MASTER=f"local[{k}]")
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-Xss8m"] + JAVA_OPENS + [
        "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
        f"-Dspark.local.dir={out / 'spark-local'}", f"-Djava.io.tmpdir={out / 'tmp'}",
        f"-Dspark.sql.warehouse.dir={out / 'warehouse'}",
        f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
        "-cp", f"{classes}{os.pathsep}{build.spark_jars(root)}/*", "perfbench.Main"] + args)
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run: the JVM did not finish within {limit_s:.0f} s")
    finally:  # also on SIGTERM (see main) and Ctrl-C: never leave the JVM running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"run: the JVM exited with code {proc.returncode}")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise SystemExit("run: the JVM printed no report")
    return json.loads(lines[-1]), {"nproc": nproc, "master": env["SPARK_MASTER"], "heap": HEAP}


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0], xs[0]] if xs else []
    return statistics.quantiles(xs, n=4)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="record this run's answers as the seed-0 answers")
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("run: terminated"))
    if a.record and a.seed != 0:
        ap.error("--record records the seed-0 answers; use --seed 0")
    t_start = time.monotonic()
    root = Path.cwd()

    classes, digest, compiled = build.build(root)
    limit = (FIRST_RUN_LIMIT_S if compiled else RUN_LIMIT_S) - (time.monotonic() - t_start)
    rep, host = run_jvm(root, classes, ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                                        "--trace", str(a.trace)], max(30.0, limit))

    solves = rep["solves"]
    recorded = answers.load(HERE / "expected" / "seed0.json").get(a.workload, {}) if a.seed == 0 and not a.record else None
    failures = answers.check(solves, recorded)
    if a.record:
        if any(failures.values()):
            raise SystemExit("run: not recording answers that fail their certificate checks")
        answers.record(HERE / "expected" / "seed0.json", a.workload, solves)

    timed = [s for s in solves if not s["warmup"]]
    attempted = len(timed)
    failed = sum(1 for i, s in enumerate(solves) if not s["warmup"] and failures[i])
    all_failed = sum(1 for f in failures.values() if f)
    passes = [p["ms"] / 1e3 for p in rep["passes"] if not p["warmup"] and not p["traced"]]
    solve_ms = [s["ms"] for s in timed if not s["traced"]]
    setup_s = [ms / 1e3 for ms in rep["setup_ms"]]
    by_key = {}
    for s in timed:
        if not s["traced"]:
            by_key.setdefault(s["key"], []).append(s["ms"])
    median_by_key = {k: statistics.median(v) for k, v in by_key.items()}
    min_by_key = {k: min(v) for k, v in by_key.items()}

    if a.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(rep["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            # fastest, not median: the host's load slows whole stretches of a
            # run by up to 1.6x, and interference only ever adds time
            "pass_min_s": {"value": min(passes), "unit": "s"},
            # per config, since the solves of a pass are different configs
            "solve_min_ms": {"value": statistics.median(min_by_key.values()), "unit": "ms"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "live_heap_mb": {"value": rep["live_heap_mb"], "unit": "MB"},
        }

    detail = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "provenance": dict(rep["provenance"], nproc=host["nproc"], pinned_heap=host["heap"],
                           git_commit=git_commit(root), source_sha256=digest,
                           python=platform.python_version(), machine=platform.machine()),
        "setup_s": setup_s,
        "pass_s": {"count": len(passes), "quartiles": quartiles(passes), "values": passes},
        "solve_ms": {"count": len(solve_ms), "median_by_key": median_by_key, "min_by_key": min_by_key},
        "sizes": rep["sizes"],
        "size_totals": {f: sum(s[f] for s in rep["sizes"].values()) for f in ("n", "m", "m_pos")},
        "failures": [{"key": solves[i]["key"], "pass": solves[i]["pass"], "errors": e} for i, e in failures.items() if e],
        "metrics": metrics,
        "layers": rep["layers"],
        "report": rep,
    }
    res_dir = build.out_dir(root) / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    (res_dir / f"{a.workload}_seed{a.seed}_trace{a.trace}.json").write_text(json.dumps(detail, indent=1))

    for f in detail["failures"][:20]:
        print(f"FAILED {f['key']} (pass {f['pass']}): {'; '.join(f['errors'])}")
    if not a.trace:
        q = detail["pass_s"]["quartiles"]
        print(f"{a.workload} seed={a.seed}: {len(passes)} passes, pass time quartiles "
              f"{' / '.join(f'{x:.3f}' for x in q)}; {len(solve_ms)} solves; setups {', '.join(f'{x:.2f}' for x in setup_s)} s")
        slow = sorted(detail["solve_ms"]["median_by_key"].items(), key=lambda kv: -kv[1])[:5]
        print("slowest solves (median ms): " + ", ".join(f"{k} {v:.1f}" for k, v in slow))
    print(f"input size: {detail['size_totals']} over {len(rep['sizes'])} graphs")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": all_failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def unit_of(name):
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("_frac", "ratio"), ("_util", "ratio"),
                         ("ratio_max", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    main()
