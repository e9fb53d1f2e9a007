#!/usr/bin/env python3
"""Weak-key audit benchmark for the `bulkgcd` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-2k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

It builds `bulkgcd` and the in-process harness from source, makes the
workload's inputs from the seed (outside every timed region), runs the
workload's stages as the user types them, checks every output against the
generator's truth, and prints one JSON object as its last stdout line.
Timed figures are scaled to one reference speed by a calibration loop
timed between passes. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` runs one untraced pass plus the traced
in-process replay and reports the per-layer metrics. See
perfbench/README.md.
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_work")
# Rayon threads of the timed passes. One thread: on a shared 2-core host a
# neighbour's load on either core slows a two-thread child by up to 2x, a
# one-thread child by about a quarter (see README, "Steadiness").
TIMED_THREADS = 1
# Rayon threads of everything untimed (generator, traced replay), so the
# parallel layers' per-layer metrics still measure parallel work.
THREADS = max(1, min(2, os.cpu_count() or 1))
E = 65537
# Ingest repetitions per run; set-up time is their median. Each is a
# process start plus a few milliseconds of work, so it takes many.
SETUP_REPS = 101
# Seconds one repetition of the harness's calibration loop typically took
# on the 2-core VM the bounds were set on. Timed figures are reported at
# that speed: each wall time is scaled by this over the loop's time
# measured just before and after it (see README, "Steadiness").
CAL_REF_S = 0.014
CAL_REPS = 5
# sha256 of the self-test corpus (seed 1), pinning the generator's output.
SELFTEST_FINGERPRINT = "e81170da7776c0745f9ab78205866edd9ba9a59b36cf6bfbaa262715a4e2754c"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Fail(Exception):
    """A setup error: the run cannot produce a result."""


# ---------------------------------------------------------------------------
# Building and running children
# ---------------------------------------------------------------------------


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the CLI and the harness (no-ops when up to date)."""
    for needed in ("Cargo.toml", os.path.join("src", "bin", "bulkgcd.rs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise Fail(f"{needed} not found: run from the root of a bulk-gcd checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "bulkgcd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "harness", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise Fail(f"build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "bulkgcd"), os.path.join(rel, "perfbench-harness")


class Child:
    """One finished child process: wall time, exit code, output, peak RSS."""

    def __init__(self, argv, cwd, threads=THREADS):
        out_path = os.path.join(cwd, ".stdout")
        err_path = os.path.join(cwd, ".stderr")
        env = dict(os.environ, RAYON_NUM_THREADS=str(threads))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            self.end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.start
        self.rc = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, "rb") as f:
            self.stdout = f.read()
        with open(err_path, "rb") as f:
            self.stderr = f.read().decode(errors="replace")


def harness_json(harness, args, cwd):
    c = Child([harness] + args, cwd)
    if c.rc != 0:
        raise Fail(f"harness {args[0]} failed: {c.stderr.strip()}")
    return json.loads(c.stdout.decode().strip().splitlines()[-1]), c


def calibrate(harness, cwd):
    """Median seconds of one repetition of the harness's calibration loop."""
    rep, _ = harness_json(harness, ["calibrate", "--reps", str(CAL_REPS)], cwd)
    return statistics.median(rep["samples_s"])


def workloads(harness):
    """The harness's workload table: name -> keys, bits, stages and the
    chunked scan's limb budget."""
    rep, _ = harness_json(harness, ["workloads"], WORK)
    return {w["name"]: w for w in rep["workloads"]}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def corpus_dir(harness, workload, seed):
    """Generate (or reuse) the seeded corpus; never inside a timed region.
    The cache key covers the generator's source, so a changed generator
    never reuses stale inputs."""
    h = hashlib.sha256()
    src = os.path.join(BENCH_DIR, "harness", "src", "bin", "perfbench-harness")
    for name in ("gen.rs", "main.rs"):
        with open(os.path.join(src, name), "rb") as f:
            h.update(f.read())
    d = os.path.join(WORK, "corpus", f"{workload}-s{seed}-{h.hexdigest()[:12]}")
    done = os.path.join(d, ".done")
    if not os.path.exists(done):
        os.makedirs(d, exist_ok=True)
        harness_json(harness, ["gen", "--workload", workload, "--seed", str(seed), "--out", d,
                               "--pool-dir", WORK], WORK)
        open(done, "w").close()
    return d


def raw_lines(corpus_text):
    """The corpus's moduli lines, numbered as the CLI numbers them."""
    out = []
    for line in corpus_text.splitlines():
        text = line.split("#", 1)[0].strip()
        if text:
            out.append(text)
    return out


# ---------------------------------------------------------------------------
# Oracles: each returns a list of problems (empty when the output is right)
# ---------------------------------------------------------------------------


def check_exit(c, what):
    return [] if c.rc == 0 else [f"{what}: exit {c.rc}: {c.stderr.strip()[-300:]}"]


def check_findings(c, expected, what):
    problems = check_exit(c, what)
    if not problems and c.stdout.decode() != expected:
        problems.append(f"{what}: findings differ from the truth")
    return problems


def check_break(c, corpus_text, break_truth):
    """Broken keys must be exactly the planted ones, with the planted
    factor, and each private exponent must decrypt what the public key
    encrypted."""
    problems = check_exit(c, "break")
    if problems:
        return problems
    moduli = raw_lines(corpus_text)
    got, expected = [], []
    for line in break_truth.splitlines():
        i, p = line.split()
        expected.append((int(i), int(p, 16)))
    for line in c.stdout.decode().splitlines():
        parts = line.split()
        if parts == ["no", "keys", "broken"]:
            continue
        try:
            i, p, d = (int(x, base) for x, base in zip(parts, (10, 16, 16), strict=True))
        except ValueError:
            problems.append(f"break: malformed line {line!r}")
            continue
        got.append((i, p))
        n = int(moduli[i], 16) if 0 <= i < len(moduli) else 0
        msg = 0xC0FFEE + i
        if n <= msg or pow(pow(msg, E, n), d, n) != msg:
            problems.append(f"break: key {i} fails the encrypt/decrypt round trip")
    if got != expected:
        problems.append("break: broken keys differ from the truth")
    return problems


# ---------------------------------------------------------------------------
# One pass of a workload
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rss_mb = 0.0

    def op(self, problems, child=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if child is not None:
            self.rss_mb = max(self.rss_mb, child.rss_mb)


def run_pass(wl, bins, inputs, run_dir, tally, spans, threads):
    """Run the workload's stages once as child processes with `threads`
    rayon threads and return {stage: [wall seconds]}."""
    bulkgcd = bins[0]
    stages = wl["stages"]
    bits = str(wl["bits"])
    walls = {}

    def stage(label, argv, check):
        c = Child(argv, run_dir, threads)
        walls[label] = [c.wall]
        spans.append((f"cli.{label}", c.start, c.end))
        tally.op(check(c), c)

    for f in os.listdir(inputs):
        if not f.startswith("."):
            shutil.copy(os.path.join(inputs, f), os.path.join(run_dir, f))
    corpus_text = read(run_dir, "corpus.txt")
    truth = read(run_dir, "truth.txt")

    stage("ingest", [bulkgcd, "ingest", "corpus.txt", "--out", "corpus.arena",
                     "--min-bits", bits], lambda c: check_exit(c, "ingest"))
    stage("scan", [bulkgcd, "scan", "corpus.arena", "--arena", "--engine", "auto"],
          lambda c: check_findings(c, truth, "scan --engine auto"))
    if "scan_chunked" in stages:
        stage("scan_chunked", [bulkgcd, "scan", "corpus.arena", "--arena",
                               "--chunk-limbs", str(wl["chunk_limbs"])],
              lambda c: check_findings(c, truth, "scan --chunk-limbs"))
    if "scan_sharded" in stages:
        shutil.rmtree(os.path.join(run_dir, "shards"), ignore_errors=True)
        stage("scan_sharded", [bulkgcd, "scan", "corpus.arena", "--arena", "--engine",
                               "lockstep", "--shards", "2", "--shard-dir", "shards"],
              lambda c: check_findings(c, truth, "scan --shards"))
    stage("break", [bulkgcd, "break", "corpus.txt", "--min-bits", bits],
          lambda c: check_break(c, corpus_text, read(run_dir, "break_truth.txt")))
    return walls


def read(d, name):
    with open(os.path.join(d, name)) as f:
        return f.read()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(samples, tally):
    """setup_s, e2e_s and peak_rss_mb from the stage samples of one run,
    which are at the reference speed. A pass's time is the sum of its
    stages' median times, so a slow spell of the machine during one stage
    run does not set the figure."""
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "setup_s": med["ingest"],
        "e2e_s": sum(med.values()),
        "peak_rss_mb": tally.rss_mb,
    }


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def check_interactions(spec):
    """interactions.json must cover exactly BENCHMARK.json's per-layer
    metrics and name only its metrics and workloads."""
    with open(os.path.join(BENCH_DIR, "interactions.json")) as f:
        table = json.load(f)
    per_layer = [m["name"] for m in spec["per_layer"]]
    if sorted(row["metric"] for row in table["layers"]) != sorted(per_layer):
        raise Fail("interactions.json and BENCHMARK.json name different per-layer metrics")
    metrics = set(per_layer) | {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for row in table["layers"] + table["gaps"]:
        for ref in row["moves"] + row["still"]:
            metric, _, workload = ref.partition("@")
            if metric not in metrics or workload not in workloads:
                raise Fail(f"interactions.json names an unknown metric or workload: {ref}")


def chrome_events(spans, pid, run, epoch):
    events = []
    for k, (name, start, end) in enumerate(spans):
        events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (start - epoch) * 1e6, "dur": (end - start) * 1e6,
            "pid": pid, "tid": 1, "args": {"id": k, "parent": None, "run": run},
        })
    return events


def run_workload(args):
    spec, units = load_spec()
    check_interactions(spec)
    bins = build()
    os.makedirs(WORK, exist_ok=True)
    table = workloads(bins[1])
    names = [w["name"] for w in spec["workloads"]]
    if names != list(table):
        raise Fail(f"BENCHMARK.json workloads {names} differ from the harness's {list(table)}")
    if args.workload not in table:
        raise Fail(f"unknown workload {args.workload!r}")
    wl = table[args.workload]
    inputs = corpus_dir(bins[1], wl["name"], args.seed)
    run_dir = os.path.join(WORK, "runs", f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(args, wl, spec, units, bins, inputs, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, wl, spec, units, bins, inputs, run_dir):
    tally = Tally()
    spans = []
    samples = {}  # stage -> wall seconds at the reference speed
    raw = {}  # stage -> wall seconds as measured
    first = None
    passes = 0
    setup_per_pass = 0

    def setup_ingests(n):
        walls = []
        for _ in range(n):
            c = Child([bins[0], "ingest", "corpus.txt", "--out", "corpus.arena",
                       "--min-bits", str(wl["bits"])], run_dir, TIMED_THREADS)
            tally.op(check_exit(c, "ingest"), c)
            walls.append(c.wall)
        return walls

    def record(walls, cal_before):
        """Calibrate again and put `walls`, timed since `cal_before`, on the
        reference scale; returns the new calibration."""
        cal_after = calibrate(bins[1], run_dir)
        log(f"  calibration loop {cal_after * 1e3:.2f} ms")
        scale = CAL_REF_S / ((cal_before + cal_after) / 2)
        for k, v in walls.items():
            raw.setdefault(k, []).extend(v)
            samples.setdefault(k, []).extend(w * scale for w in v)
        return cal_after

    # The traced run's CLI pass matches the replay's thread count, so
    # cli.overhead_s compares like with like.
    threads = THREADS if args.trace else TIMED_THREADS
    cal = None if args.trace else calibrate(bins[1], run_dir)
    epoch = start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        walls = run_pass(wl, bins, inputs, run_dir, tally, spans, threads)
        first = first or walls
        passes += 1
        last = time.perf_counter() - t0
        log(f"pass {passes}: " + ", ".join(f"{k} {v[0]:.4f} s" for k, v in walls.items()))
        if args.trace:
            break
        if passes == 1:
            # Spread the set-up samples over the run, a few after each
            # pass, rather than in one burst.
            expected = max(1, int(args.seconds / last))
            setup_per_pass = -(-SETUP_REPS // expected)
        walls["ingest"] = walls["ingest"] + setup_ingests(setup_per_pass)
        cal = record(walls, cal)
        if time.perf_counter() - start + last > args.seconds:
            break
    if not args.trace:
        top_up = SETUP_REPS - len(samples["ingest"])
        if top_up > 0:
            cal = record({"ingest": setup_ingests(top_up)}, cal)
        log(f"e2e_s as measured, before scaling: "
            f"{sum(statistics.median(v) for v in raw.values()):.4f} s")

    if not args.trace:
        values = end_to_end(samples, tally)
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        cli_walls = {k: v[0] for k, v in first.items()}
        values = traced(args, bins, run_dir, cli_walls, tally, spans, epoch)
        names = [m["name"] for m in spec["per_layer"]]
    missing = [n for n in names if n not in values]
    if missing:
        raise Fail(f"metrics not measured: {missing}")
    for p in tally.problems:
        log(f"FAILED: {p}")
    log(f"{args.workload} seed {args.seed}: {passes} pass(es), "
        f"{tally.attempted} ops, {tally.failed} failed")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def traced(args, bins, run_dir, cli_walls, tally, spans, epoch):
    """The traced in-process replay, set against the untraced CLI pass."""
    harness_trace = os.path.join(run_dir, "trace-harness.json")
    run_id = f"{args.workload}-s{args.seed}"
    rep, child = harness_json(bins[1], [
        "layers", "--workload", args.workload, "--dir", run_dir, "--trace-out", harness_trace,
        "--run", run_id, "--seed", str(args.seed),
    ], run_dir)
    tally.attempted += rep["attempted"]
    tally.failed += rep["failed"]
    if rep["failed"]:
        tally.problems.append(f"traced replay: {rep['notes']}")
    values = dict(rep["metrics"])

    # Each CLI stage's wall time = its replayed layer spans + CLI overhead.
    overhead = 0.0
    log(f"{'stage':14s} {'cli wall s':>11s} {'layer spans s':>14s} {'cli overhead s':>15s}")
    for stage, wall in cli_walls.items():
        if stage not in rep["stages"]:
            continue
        inproc = rep["stages"][stage]
        overhead += wall - inproc
        log(f"{stage:14s} {wall:11.4f} {inproc:14.4f} {wall - inproc:15.4f}")
    values["cli.overhead_s"] = overhead
    log(f"scan.auto resolved to {rep['auto_backend']}")
    log("self time per layer (s): " + ", ".join(
        f"{k} {v:.4f}" for k, v in sorted(rep["self_s"].items())))

    with open(harness_trace) as f:
        harness_events = json.load(f)
    offset = (child.start - epoch) * 1e6
    for ev in harness_events:
        ev["ts"] += offset
    events = chrome_events(spans, 1, run_id, epoch) + harness_events
    out = os.path.join(WORK, f"trace-{run_id}.json")
    with open(out, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"self_s": rep["self_s"], "stages": rep["stages"],
                                 "cli_walls": cli_walls, "auto_backend": rep["auto_backend"]}},
                  f)
    log(f"trace written to {os.path.relpath(out, ROOT)} ({len(events)} spans)")
    return values


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def self_test():
    """Generator determinism and a pinned fingerprint; and that each oracle
    accepts real output and refuses a tampered copy."""
    bulkgcd, harness = build()
    base = os.path.join(WORK, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    failures = []

    def expect(cond, what):
        log(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    def digest(d):
        h = hashlib.sha256()
        for name in sorted(os.listdir(d)):
            h.update(name.encode() + b"\0" + open(os.path.join(d, name), "rb").read())
        return h.hexdigest()

    dirs = []
    for k, seed in enumerate((1, 1, 2)):
        d = os.path.join(base, f"gen{k}")
        harness_json(harness, ["selftest", "--seed", str(seed), "--out", d], base)
        dirs.append(d)
    expect(digest(dirs[0]) == digest(dirs[1]), "same seed gives the same bytes")
    expect(digest(dirs[0]) != digest(dirs[2]), "another seed gives other bytes")
    expect(digest(dirs[0]) == SELFTEST_FINGERPRINT,
           f"seed 1 matches the pinned fingerprint ({digest(dirs[0])})")

    d = dirs[0]
    bits = 128
    corpus = read(d, "corpus.txt")
    truth = read(d, "truth.txt")
    bt = read(d, "break_truth.txt")
    ingest = Child([bulkgcd, "ingest", "corpus.txt", "--out", "corpus.arena",
                    "--min-bits", str(bits)], d)
    expect(not check_exit(ingest, "ingest"), "ingest succeeds")
    scans = [
        ["--engine", "auto"], ["--chunk-limbs", "64"],
        ["--engine", "lockstep", "--shards", "2", "--shard-dir", "shards"],
    ]
    for extra in scans:
        c = Child([bulkgcd, "scan", "corpus.arena", "--arena"] + extra, d)
        expect(not check_findings(c, truth, "scan"), f"scan {' '.join(extra)} matches the truth")
        c.stdout = c.stdout.replace(b"1", b"3", 1)
        expect(bool(check_findings(c, truth, "scan")), "a tampered findings line fails")
    brk = Child([bulkgcd, "break", "corpus.txt", "--min-bits", str(bits)], d)
    expect(not check_break(brk, corpus, bt), "break keys round-trip")
    lines = brk.stdout.decode().splitlines()
    i, p, dd = lines[0].split()
    lines[0] = f"{i} {p} {int(dd, 16) ^ 2:x}"
    brk.stdout = ("\n".join(lines) + "\n").encode()
    expect(bool(check_break(brk, corpus, bt)), "a tampered private exponent fails")

    shutil.rmtree(base, ignore_errors=True)
    if failures:
        log(f"self-test: {len(failures)} failure(s)")
        return 1
    log("self-test: all checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        result = run_workload(args)
    except Fail as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
