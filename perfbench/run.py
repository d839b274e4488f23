#!/usr/bin/env python3
"""Benchmark of Dist-mu-RA: builds the program from source, runs one
workload on Spark local[nproc] and prints its metrics.

    python3 perfbench/run.py --workload yago --seed 1 --seconds 20 --trace 0

Run it from the repository root. With --trace 0 it reports the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run. The last
line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only if
every query's result matched the reference. NOTES.md describes the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("yago", "uniprot", "mu_gld")
# A run must end within 180 s; the JVM is killed before that.
RUN_LIMIT_S = 170

JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))
    return files + [HERE / "build.sbt", HERE / "project" / "build.properties"]


def build():
    """Compiles the program and the harness with sbt, once per source state;
    returns the runtime classpath."""
    if not PROGRAM_SRC.is_dir() or not any(PROGRAM_SRC.rglob("*.scala")):
        fail(f"program sources not found under {PROGRAM_SRC}")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set; the build takes Spark's jars from it")
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = BUILD / "classpath.json"
    if stamp.exists():
        saved = json.loads(stamp.read_text())
        if saved.get("digest") == digest.hexdigest():
            return saved["classpath"]
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = ["-Dsbt.offline=true", "-Xmx2g", "-Dsbt.server.forcestart=false"]
    repos = Path.home() / ".sbt" / "repositories"
    if repos.exists():
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=out, text=True, timeout=850)
    out_lines = proc.stdout.splitlines()
    (BUILD / "build.out").write_text(proc.stdout)
    cp = [l for l in out_lines if "classes" in l and os.pathsep in l and not l.startswith("[")]
    if proc.returncode != 0 or not cp:
        fail(f"build failed (exit {proc.returncode}); see {BUILD / 'build.out'}")
    stamp.write_text(json.dumps({"digest": digest.hexdigest(), "classpath": cp[-1]}))
    return cp[-1]


def heap_size():
    """Half the machine's memory, between 2 and 8 GiB."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
        g = kb // 2097152
    except (OSError, StopIteration, ValueError):
        g = 2
    return f"{min(8, max(2, g))}g"


def run_program(cp, args, out_dir, deadline):
    # C1 only: with C2, passes kept speeding up for over a minute (NOTES.md).
    cmd = ["java", f"-Xmx{heap_size()}", "-XX:TieredStopAtLevel=1", "-Dspark.ui.enabled=false",
           f"-Djava.io.tmpdir={out_dir / 'tmp'}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
    cmd += ["-cp", cp, "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "program.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"program did not finish in time; see {out_dir / 'program.log'}")
    if code != 0 or not (out_dir / "record.json").exists():
        fail(f"program exited with {code}; see {out_dir / 'program.log'}")
    return json.loads((out_dir / "record.json").read_text())


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else (xs[0] if xs else 0.0)


def end_to_end(rec):
    plain = [p for p in rec["passes"] if p["kind"] == "plain"]
    samples = [q["ms"] for p in plain for q in p["queries"]]
    return {
        "setup_s": (rec["boot_s"] + median(rec["setup_data_s"]), "s"),
        "pass_s": (median([p["wall_ms"] for p in plain]) / 1000.0, "s"),
        "query_ms.p50": (median(samples), "ms"),
    }


def self_times(spans):
    """Duration minus the part of the interval its children cover, per span id."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, end = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], end), min(c["end_ns"], s["end_ns"])
            if b > a:
                covered += b - a
                end = b
        out[s["id"]] = (s["end_ns"] - s["start_ns"] - covered) / 1e6
    return out


def per_layer(rec, spans):
    """Per-layer metrics of a traced run. Times and counts are per pass
    (one pass runs every query of the workload once), as the median over
    the traced passes; the counts must be equal in every traced pass."""
    traced = [p for p in rec["passes"] if p["kind"] == "traced"]
    plain = [p for p in rec["passes"] if p["kind"] == "plain"]
    own = self_times(spans)
    jobs = rec.get("jobs", [])
    per_pass = []
    for p in traced:
        n = p["pass"]
        sp = [s for s in spans if s["pass"] == n]
        qs = p["queries"]
        pj = [j for j in jobs if j["pass"] == n]

        def total(name, self_only=False):
            return sum(own[s["id"]] if self_only else (s["end_ns"] - s["start_ns"]) / 1e6
                       for s in sp if s["name"] == name)

        qerr = []
        for q in qs:
            if q.get("est_rows") is not None and q["rows"] >= 0:
                e, a = max(1.0, q["est_rows"]), max(1.0, q["rows"])
                qerr.append(max(e / a, a / e))
        per_pass.append({
            "ucrpq.translate_ms": (total("ucrpq.translate"), "ms"),
            "rewriter.explore_ms": (total("rewriter.explore", self_only=True), "ms"),
            "rewriter.plans": (sum(q["plans"] for q in qs), "count"),
            "cost.estimate_calls": (sum(q["estimate_calls"] for q in qs), "count"),
            "cost.estimate_ms": (total("cost.estimate"), "ms"),
            "cost.best_ms": (total("cost.best"), "ms"),
            "cost.qerror.p50": (median(qerr), "ratio"),
            "cost.qerror.max": (max(qerr, default=0.0), "ratio"),
            "plan.fix_plw": (sum(q.get("fix_plw", 0) for q in qs), "count"),
            "plan.fix_gld": (sum(q.get("fix_gld", 0) for q in qs), "count"),
            "exec.execute_ms": (total("exec.execute"), "ms"),
            "exec.result_rows": (sum(max(0, q["rows"]) for q in qs), "count"),
            "exec.driver_only_ms": (total("exec.execute", self_only=True), "ms"),
            "spark.jobs": (len(pj), "count"),
            "spark.stages": (sum(j["stages"] for j in pj), "count"),
            "spark.tasks": (sum(j["tasks"] for j in pj), "count"),
            "spark.task_run_ms": (sum(j["task_run_ms"] for j in pj), "ms"),
            "spark.task_cpu_ms": (sum(j["task_cpu_ms"] for j in pj), "ms"),
            "spark.task_deser_ms": (sum(j["task_deser_ms"] for j in pj), "ms"),
            "spark.task_result_bytes": (sum(j["task_result_bytes"] for j in pj), "bytes"),
            "spark.shuffle_write_bytes": (sum(j["shuffle_write_bytes"] for j in pj), "bytes"),
            "spark.shuffle_read_bytes": (sum(j["shuffle_read_bytes"] for j in pj), "bytes"),
            "spark.shuffle_fetch_wait_ms": (sum(j["shuffle_fetch_wait_ms"] for j in pj), "ms"),
            "spark.task_skew": (median([s for j in pj for s in j["stage_skew"]]), "ratio"),
            "spark.gc_ms": (sum(j["gc_ms"] for j in pj), "ms"),
            "local_eval.ms": (total("local_eval"), "ms"),
        })
    metrics = {k: (median([pp[k][0] for pp in per_pass]), u) for k, (_, u) in per_pass[0].items()}
    traced_wall = median([sum((s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
                              if s["pass"] == p["pass"] and s["name"] == "query") for p in traced])
    metrics["trace.overhead"] = (traced_wall / median([p["wall_ms"] for p in plain]), "ratio")
    metrics["jvm.heap_peak_mb"] = (rec["heap_peak_mb"], "MB")
    return metrics, per_pass


# Counts that must repeat exactly in every traced pass, per query.
EXACT = ("plans", "fix_plw", "fix_gld", "rows")
EXACT_JOBS = ("spark.jobs", "spark.shuffle_write_bytes")


def self_check(rec, per_pass):
    """Problems with counts that should be deterministic."""
    problems = []
    traced = [p for p in rec["passes"] if p["kind"] == "traced"]
    for key in EXACT:
        for qid in rec["meta"]["queries"]:
            vals = {q.get(key) for p in traced for q in p["queries"] if q["query"] == qid}
            if len(vals) > 1:
                problems.append(f"{qid}: {key} differs across traced passes: {sorted(map(str, vals))}")
    for key in EXACT_JOBS:
        vals = {pp[key][0] for pp in per_pass}
        if len(vals) > 1:
            problems.append(f"{key} differs across traced passes: {sorted(vals)}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    start = time.monotonic()
    cp = build()
    run_dir = BUILD / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # The first run in a checkout also builds; only the run itself is limited.
    rec = run_program(cp, args, run_dir, time.monotonic() + RUN_LIMIT_S)
    for d in ("tmp", "spark-local", "warehouse"):
        shutil.rmtree(run_dir / d, ignore_errors=True)

    problems = [f"{v['query']}: verify {v['result']} != reference {v['reference']}"
                for v in rec["verify"] if not v["ok"]]
    attempted = len(rec["verify"])
    failed = len(problems)
    for p in rec["passes"]:
        for q in p["queries"]:
            attempted += 1
            if not q["ok"]:
                failed += 1
                problems.append(f"pass {p['pass']} {q['query']}: rows={q['rows']} error={q.get('error')}")
    if args.trace:
        spans = [json.loads(l) for l in (run_dir / "spans.jsonl").read_text().splitlines()]
        metrics, per_pass = per_layer(rec, spans)
        problems += self_check(rec, per_pass)
    else:
        metrics = end_to_end(rec)
    correct = not problems

    meta = rec["meta"]
    print(f"workload={meta['workload']} seed={meta['seed']} nproc={meta['nproc']} "
          f"xmx_mb={meta['xmx_mb']} spark={meta['spark_version']} partitions={meta['partitions']} "
          f"passes={len(rec['passes'])} setup_samples_s={rec['setup_data_s']} "
          f"boot_s={rec['boot_s']:.3f} reference_s={rec['reference_s']:.3f} verify_s={rec['verify_s']:.3f}")
    for k, (v, u) in metrics.items():
        print(f"  {k:28s} {v:14.4f} {u}")
    if not args.trace:
        samples = [q["ms"] for p in rec["passes"] if p["kind"] == "plain" for q in p["queries"]]
        print(f"  {'query_ms.p90':28s} {p90(samples):14.4f} ms  ({len(samples)} samples; not a metric)")
    print(f"  {'failed_frac':28s} {failed / attempted:14.4f} ratio  ({failed} of {attempted})")
    for msg in problems:
        print(f"FAILED: {msg}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(dict(result, meta=meta, wall_s=time.monotonic() - start)))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
