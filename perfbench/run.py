#!/usr/bin/env python3
"""Repository benchmark: build wheels_perfbench and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold-library|warm-figures|serve-hot \
        --seed N --seconds S --trace 0|1 [--update-expected]

The first run in a checkout configures and builds the program and the
bench/ printers from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Each run
works in its own empty directory under .bench_work/, deleted afterwards,
and keeps its full result under .bench_out/:

    <workload>-trace<T>.json   everything the run measured (latest run)
    trace-<workload>.json      Chrome trace_event spans of the traced run
    ledger.md                  per-layer table over the latest traced runs
    counts.json                exact work counts per workload, seed and code

With --trace 0 the result line carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric. The last line of
stdout is that JSON object. The dataset, printer-output and serve digests
are also compared with perfbench/expected_seed42.json on every run (every
workload's datasets keep seed 42); --update-expected, with seed 42,
rewrites that file's entries for the workload instead. A traced run whose
Chrome trace is missing or fails tools/validate_trace.py counts as a failed
operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(HERE, "expected_seed42.json")
WORKLOADS = ("cold-library", "warm-figures", "serve-hot")
GOLDEN_SEED = 42
RUN_TIMEOUT_S = 170
# Digests a run must reproduce, per workload (keys of "details"). Every
# workload's datasets keep the golden seed whatever --seed is, so they are
# checked on every run.
DIGEST_KEYS = {
    "cold-library": ("dataset_digests",),
    "warm-figures": ("campaign_digest", "printer_digests"),
    "serve-hot": ("catalogue_digest",),
}


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def clean_env() -> dict[str, str]:
    # The program reads WHEELS_* knobs (cache dir, jobs, exporters); the
    # benchmark sets every one it needs explicitly.
    return {k: v for k, v in os.environ.items() if not k.startswith("WHEELS_")}


def build(env: dict[str, str]) -> str:
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"{needed} not found under {ROOT}: run from a full checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "wheels_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build failed ({' '.join(cmd[:2])}); see {log_path}")
    return build_dir


def run_program(build_dir: str, args, env: dict[str, str]) -> dict:
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "wheels_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--printers", os.path.join(build_dir, "printers")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"wheels_perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def hexes(value) -> dict[str, str]:
    return value if isinstance(value, dict) else {"": value}


def compare_expected(detail: dict, update: bool) -> tuple[int, list[str]]:
    """The run's digests against the stored ones: how many were compared,
    and the mismatches."""
    stored = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED) as f:
            stored = json.load(f)
    workload = detail["workload"]
    got = {k: detail["details"][k] for k in DIGEST_KEYS[workload]}
    if update:
        stored[workload] = got
        with open(EXPECTED, "w") as f:
            json.dump(stored, f, indent=2, sort_keys=True)
            f.write("\n")
        return 0, []
    want = stored.get(workload)
    if want is None:
        return 1, [f"no stored digests for {workload} in {EXPECTED}"]
    compared, bad = 0, []
    for key in DIGEST_KEYS[workload]:
        w, g = hexes(want.get(key)), hexes(got[key])
        for name in sorted(set(w) | set(g)):
            compared += 1
            if w.get(name) != g.get(name):
                bad.append(f"{key} {name}: got {g.get(name)}, stored {w.get(name)}")
    return compared, bad


def code_hash() -> str:
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_counts(detail: dict) -> bool:
    """Record the exact work counts; False when they differ from an earlier
    run of the same code, workload and seed."""
    path = os.path.join(OUT, "counts.json")
    book = {}
    if os.path.isfile(path):
        with open(path) as f:
            book = json.load(f)
    key = f"{detail['workload']} seed={detail['seed']} code={code_hash()}"
    counts = detail["counts"]
    earlier = book.setdefault(key, counts)
    with open(path, "w") as f:
        json.dump(book, f, indent=2, sort_keys=True)
    if earlier != counts:
        diff = {k: (earlier.get(k), v) for k, v in counts.items()
                if earlier.get(k) != v}
        print(f"perfbench: WARNING: work counts differ from an earlier run "
              f"of the same code: {diff}", file=sys.stderr)
        return False
    return True


def validate_trace(workload: str) -> str | None:
    """None when the run's trace passes tools/validate_trace.py, else why."""
    tool = os.path.join(ROOT, "tools", "validate_trace.py")
    trace = os.path.join(OUT, f"trace-{workload}.json")
    if not os.path.isfile(tool):
        return f"trace not checked: {tool} is missing"
    if not os.path.isfile(trace):
        return f"no trace written at {trace}"
    rc = subprocess.run([sys.executable, tool, trace], capture_output=True,
                        text=True)
    return None if rc.returncode == 0 else "invalid trace: " + rc.stderr.strip()


def write_ledger(spec: dict) -> None:
    """Per-layer table over the latest traced run of every workload."""
    runs = {}
    for w in WORKLOADS:
        path = os.path.join(OUT, f"{w}-trace1.json")
        if os.path.isfile(path):
            with open(path) as f:
                run = json.load(f)
            if "traced_total_s" in run:  # skip results of older layouts
                runs[w] = run
    if not runs:
        return
    names = list(runs)
    lines = ["# Per-layer ledger", "",
             "Latest traced run of each workload. Times are self time (or "
             "the layer's own counter) summed over the traced passes, with "
             "their share of those passes' wall time; counts are exact. "
             "Pool and simulation times add up across threads, so shares "
             "can pass 100%.", "",
             "| layer | metric | " + " | ".join(names) + " |",
             "|---|---|" + "---|" * len(names)]
    for m in spec["per_layer"]:
        cells = []
        for w in names:
            v = runs[w]["per_layer"].get(m["name"])
            if v is None:
                cells.append("-")
            elif m["unit"] == "s":
                share = 100.0 * v / runs[w]["traced_total_s"]
                cells.append(f"{v:.3f} s ({share:.1f}%)")
            else:
                cells.append(f"{v:.6g} {m['unit']}")
        layer = m["name"].split(".")[0]
        lines.append(f"| {layer} | {m['name']} | " + " | ".join(cells) + " |")
    lines.append("| - | traced passes, wall | " + " | ".join(
        f"{runs[w]['traced_total_s']:.3f} s" for w in names) + " |")
    lines += ["", "Set-up phase (traced set-up of the same runs):", "",
              "| layer | metric | " + " | ".join(names) + " |",
              "|---|---|" + "---|" * len(names)]
    for m in spec["per_layer"]:
        if m["unit"] != "s":
            continue
        cells = []
        for w in names:
            v = runs[w].get("setup_layers", {}).get(m["name"])
            setup = runs[w]["setup_traced_s"]
            cells.append("-" if v is None else
                         f"{v:.3f} s ({100.0 * v / setup:.1f}%)")
        lines.append(f"| {m['name'].split('.')[0]} | {m['name']} | "
                     + " | ".join(cells) + " |")
    lines.append("| - | setup_s (traced) | " + " | ".join(
        f"{runs[w]['setup_traced_s']:.3f} s" for w in names) + " |")
    with open(os.path.join(OUT, "ledger.md"), "w") as f:
        f.write("\n".join(lines) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-expected", action="store_true",
                        help="store this seed-42 run's digests as expected")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    if args.update_expected and args.seed != GOLDEN_SEED:
        die(f"--update-expected needs --seed {GOLDEN_SEED}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)

    env = clean_env()
    build_dir = build(env)
    detail = run_program(build_dir, args, env)

    failures = list(detail["failures"])
    failed = detail["failed"]
    compared, bad = compare_expected(detail, args.update_expected)
    attempted = detail["attempted"] + compared
    failures += bad
    failed += len(bad)
    detail["counts_repeat"] = check_counts(detail)
    if args.trace:
        problem = validate_trace(args.workload)
        detail["trace_check"] = problem or "valid"
        attempted += 1
        if problem:
            failures.append(problem)
            failed += 1
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"),
              "w") as f:
        json.dump(detail, f, indent=2)
    if args.trace:
        write_ledger(spec)

    source = detail["per_layer"] if args.trace else detail["end_to_end"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if isinstance(value, dict):
            value = value["value"]
        if value is None:
            die(f"metric {m['name']} missing from the {args.workload} run")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    # Human-readable summary, then the result line.
    host = detail["host"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: nproc={host['nproc']} jobs={host['jobs']} "
          f"affinity={host['affinity']} load={host['loadavg_before']} "
          f"steal={host['steal_pct']:.2f}% "
          f"alu={host['probe_before']['alu_ms']:.1f}/"
          f"{host['probe_after']['alu_ms']:.1f} ms "
          f"chase={host['probe_before']['chase_ns']:.1f}/"
          f"{host['probe_after']['chase_ns']:.1f} ns")
    for name, m in metrics.items():
        samples = source[name].get("samples") if not args.trace else None
        extra = f" (n={samples})" if samples else ""
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  counts: {json.dumps(detail['counts'])}")
    if args.trace:
        print(f"  trace: {detail['trace_check']}")
    for msg in failures[:8]:
        print(f"  FAILED: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
