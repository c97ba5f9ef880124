#!/usr/bin/env python3
"""End-to-end benchmark of the ATF reproduction: tuning CLI and tuning daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the repository's own
`atf_tune` and `atf_served` from source (CMake, Release) together with this
directory's load generator and per-layer probe into `.bench_build/`, runs one
workload for S seconds, checks every output, and prints one JSON object as
the last line of stdout. With `--trace 0` it reports the end-to-end metrics,
with `--trace 1` the per-layer metrics (and writes the recorded spans to
`.bench_build/traces/`). See perfbench/README.md for the workloads, the
metrics and why each was chosen.
"""

import argparse
import collections
import itertools
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BUILD = ".bench_build"
CMAKE_BUILD = os.path.join(BUILD, "cmake")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
JOBS = "4"
DEVICE = "K20m"

# tune-bigspace: XgemmDirect on the three orderings of one GEMM shape. All
# have the same 6,955,364-configuration constrained space on the K20m profile
# and the same multiply-add count in the reference check, so every operation
# does the same work; the seed varies the order and the search.
BIGSPACE_SHAPES = ["128x128x256", "128x256x128", "256x128x128"]
BIGSPACE_SPACE = 6955364
BIGSPACE_EVALS = 500

# tune-surrogate-journal: mid-sized spaces of three structurally different
# families. A base journal of BASE_EVALS surrogate evaluations is made in
# set-up; every operation resumes a fresh copy of it for STEP_EVALS more.
JOURNAL_FAMILIES = [("conv2d", "64x64x5x5"), ("stencil2d", "66x66x1"),
                    ("batched_gemm", "256x16x16x16")]
BASE_EVALS = 200
STEP_EVALS = 100

# serve-mixed: the daemon traffic DESIGN.md §13 describes, "many short-lived
# callers": each caller connects, sends one `get` and disconnects, as
# `atf_tune --serve SOCKET --query` does. The counts are the repository's own
# multi-caller scenario: the atf-served CI job (like
# ServedE2eTest.ConcurrentClientsAllGetAnswers) runs 8 concurrent callers
# against one daemon, and asks a new size again every 0.2 s until refinement
# serves the hit. Callers send no `stats`; that request is for operators.
SERVE_CALLERS = 8
SERVE_POLL_MS = 200
# After the load, warm gets on one reused connection, which separate the
# per-caller connection cost from the rest of the round trip.
SERVE_REUSED = 2000
# The keys: sizes of four registry families whose refinement takes a few
# milliseconds each. The seed draws the sizes but not the family mix: the
# warm set takes the same number of keys from each family (reply size and
# cost depend on the family), and cold keys arrive round-robin by family.
# The warm set adds one key of each remaining family (xgemm goes through
# the daemon's separate GEMM backend).
SERVE_POOLS = [
    [("spmv", "%dx%d" % (r, n)) for r in range(512, 8193, 512)
     for n in range(4, 33, 4)],
    [("batched_gemm", "%dx%dx%dx%d" % (b, m, n, k))
     for b in (16, 32, 48, 64, 96, 128) for m in (16, 32) for n in (16, 32)
     for k in (8, 16, 32)],
    [("conv2d", "%dx%dx%dx3" % (h, w, r)) for h in (16, 24, 32, 40, 48)
     for w in (16, 24, 32, 40, 48) for r in (3, 5)],
    [("saxpy", str(1024 * k)) for k in range(1, 33)],
]
SERVE_FIXED_WARM = [("xgemm", "64x64x64"), ("stencil2d", "66x66x1"),
                    ("reduce", "65536")]
SERVE_WARM_PER_FAMILY = 3
SERVE_REFINE_STEP = 200  # atf_served's default --refine-step

SETUP_REPEATS = 5
PROBE_REPEATS = 3
HANDLE_REPEATS = 200

PER_LAYER = [
    ("generation_ms", "ms"), ("cost_us_per_eval", "us"),
    ("engine_us_per_eval", "us"), ("search_us_per_eval", "us"),
    ("journal_us_per_eval", "us"), ("journal_open_ms", "ms"),
    ("duplicate_ratio", "ratio"), ("failed_ratio", "ratio"),
    ("evaluations", "count"),
    ("hit_us", "us"), ("hit_reused_us", "us"), ("handle_us", "us"),
    ("miss_us", "us"), ("restart_ms", "ms"), ("load_ms", "ms"),
    ("hit_ratio", "ratio"), ("cold_keys_refined", "count"),
    ("refines", "count"), ("dropped_refinements", "count"),
]


class BenchError(Exception):
    """A failure that makes the run's result meaningless."""


class Run:
    """Bookkeeping of one benchmark run: checks, counters and spans."""

    def __init__(self, trace):
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.spans = []
        self.origin = time.perf_counter()

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
            print("perfbench: check failed: " + message, file=sys.stderr)
        return ok

    def span(self, name, start, end, **attrs):
        """Records one call into the program; every span is a root, as the
        script makes each call itself."""
        if self.trace:
            self.spans.append({"name": name, "start_ms": (start - self.origin) * 1e3,
                               "end_ms": (end - self.origin) * 1e3, **attrs})


# ---------------------------------------------------------------- helpers

def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def build():
    """Configures and builds what the benchmark runs; raises on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_BUILD, "--target", "atf_tune",
                  "atf_served", "loadgen", "layers", "-j", JOBS])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                raise BenchError("build step failed: " + " ".join(cmd))
    tools = os.path.join(CMAKE_BUILD, "atf", "tools")
    return {name: os.path.abspath(path) for name, path in (
        ("tune", os.path.join(tools, "atf_tune")),
        ("served", os.path.join(tools, "atf_served")),
        ("loadgen", os.path.join(CMAKE_BUILD, "loadgen")),
        ("layers", os.path.join(CMAKE_BUILD, "layers")))}


TUNE_LINE = re.compile(
    r"space (\d+), (\d+) evaluations \((\d+) failed\), best ([0-9.eE+-]+) ns, "
    r"reference (\w+)")


TuneOutcome = collections.namedtuple(
    "TuneOutcome", "seconds stdout space evaluations best_ns")


def atf_tune(run, binary, kernel, size, technique, evaluations, seed,
             journal_dir=None, span=None):
    """Runs one `atf_tune --kernel` tune; returns its outcome or None."""
    cmd = [binary, "--kernel", kernel, "--size", size, "--device", DEVICE,
           "--technique", technique, "--evaluations", str(evaluations),
           "--seed", str(seed)]
    if journal_dir is not None:
        cmd += ["--journal-dir", journal_dir]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          stdin=subprocess.DEVNULL)
    end = time.perf_counter()
    run.span(span or "atf_tune", start, end, kernel=kernel, size=size,
             technique=technique, evaluations=evaluations,
             journal=journal_dir is not None)
    match = TUNE_LINE.search(proc.stderr)
    if not run.check(proc.returncode == 0 and match is not None,
                     "atf_tune %s %s exited %d: %s" % (
                         kernel, size, proc.returncode, proc.stderr.strip()[-300:])):
        return None
    if not run.check(match.group(5) == "ok",
                     "reference check of %s %s: %s" % (kernel, size, match.group(5))):
        return None
    if not run.check(int(match.group(2)) == evaluations,
                     "%s %s: %s evaluations, asked for %d" % (
                         kernel, size, match.group(2), evaluations)):
        return None
    return TuneOutcome(end - start, proc.stdout, int(match.group(1)),
                       int(match.group(2)), float(match.group(4)))


def journal_path(directory, kernel, size):
    """Where `atf_tune --journal-dir` keeps a family's journal."""
    return os.path.join(directory, "%s-%s-%s.jsonl" % (kernel, DEVICE, size))


def journal_records(path):
    with open(path) as journal:
        return sum(1 for line in journal if '"type":"record"' in line)


def probe(run, bins, mode, span, **flags):
    """Traced runs only: runs the per-layer probe; returns its JSON object."""
    cmd = [bins["layers"], mode]
    for flag, value in flags.items():
        cmd += ["--" + flag.replace("_", "-"), str(value)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          stdin=subprocess.DEVNULL)
    run.span(span, start, time.perf_counter(), **flags)
    if proc.returncode != 0:
        raise BenchError("layers %s failed: %s" % (mode, proc.stderr.strip()[-300:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_tune(run, bins, work, kernel, size, technique, evaluations, seed,
               base_journal=None):
    flags = dict(kernel=kernel, size=size, device=DEVICE, technique=technique,
                 evaluations=evaluations, seed=seed, repeats=PROBE_REPEATS,
                 scratch=os.path.join(work, "probe"))
    if base_journal is not None:
        flags["base_journal"] = base_journal
    return probe(run, bins, "tune", "probe.tune", **flags)


# ----------------------------------------------------------- tune-bigspace

def tune_bigspace(run, bins, rng, seconds, work):
    shapes = BIGSPACE_SHAPES[:]
    rng.shuffle(shapes)

    # Set-up: time to the first evaluation of the big space (process start,
    # space generation, one evaluation, reference check), a few times.
    setup = []
    for i in range(SETUP_REPEATS):
        first = atf_tune(run, bins["tune"], "xgemm", shapes[i % len(shapes)],
                         "random", 1, rng.randrange(1 << 31), span="setup")
        if first is None:
            raise BenchError("set-up tune failed")
        setup.append(first.seconds)

    ops, outcomes = [], []
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = (shapes[i % len(shapes)], rng.randrange(1 << 31))
        i += 1
        run.attempted += 1
        outcome = atf_tune(run, bins["tune"], "xgemm", op[0], "opentuner",
                           BIGSPACE_EVALS, op[1], span="op")
        if outcome is None or not run.check(
                outcome.space == BIGSPACE_SPACE,
                "xgemm %s: space %d, expected %d" % (op[0], outcome.space,
                                                     BIGSPACE_SPACE)):
            run.failed += 1
            continue
        ops.append(op)
        outcomes.append(outcome)
    elapsed = time.perf_counter() - started

    # Fixed-seed determinism: the first tune again must print the same best.
    if ops:
        again = atf_tune(run, bins["tune"], "xgemm", ops[0][0], "opentuner",
                         BIGSPACE_EVALS, ops[0][1], span="determinism")
        run.check(again is not None and again.stdout == outcomes[0].stdout,
                  "xgemm tune with a fixed seed is not deterministic")

    layers = {}
    if run.trace and ops:
        layers = probe_tune(run, bins, work, "xgemm", ops[0][0], "opentuner",
                            BIGSPACE_EVALS, ops[0][1])
        layers["evaluations"] = sum(o.evaluations for o in outcomes)
    # One kind of operation: every shape does the same work.
    times = {"xgemm": [o.seconds for o in outcomes]} if outcomes else {}
    return times, elapsed, median(setup), layers


# -------------------------------------------------- tune-surrogate-journal

def make_base_journals(run, tune_bin, directory, seeds):
    """Set-up: one surrogate-guided base journal per family; returns the
    elapsed time and each family's best cost."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    start = time.perf_counter()
    best = {}
    for kernel, size in JOURNAL_FAMILIES:
        outcome = atf_tune(run, tune_bin, kernel, size, "surrogate",
                           BASE_EVALS, seeds[kernel], directory, span="setup")
        if outcome is None:
            raise BenchError("set-up tune of %s failed" % kernel)
        records = journal_records(journal_path(directory, kernel, size))
        if not run.check(records == BASE_EVALS,
                         "%s base journal holds %d records, expected %d" % (
                             kernel, records, BASE_EVALS)):
            raise BenchError("bad base journal")
        best[kernel] = outcome.best_ns
    return time.perf_counter() - start, best


def resume(run, tune_bin, base_dir, work_dir, kernel, size, evaluations, seed,
           span):
    """Copies a family's base journal into a fresh directory and resumes it
    with a surrogate-guided tune; returns the outcome or None."""
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    shutil.copy(journal_path(base_dir, kernel, size),
                journal_path(work_dir, kernel, size))
    return atf_tune(run, tune_bin, kernel, size, "surrogate", evaluations,
                    seed, work_dir, span=span)


def tune_surrogate_journal(run, bins, rng, seconds, work):
    tune_bin = bins["tune"]
    base_seeds = {kernel: rng.randrange(1 << 31)
                  for kernel, _ in JOURNAL_FAMILIES}
    families = JOURNAL_FAMILIES[:]
    rng.shuffle(families)

    setup = []
    for i in range(SETUP_REPEATS):
        elapsed, base_best = make_base_journals(
            run, tune_bin, os.path.join(work, "base%d" % i), base_seeds)
        setup.append(elapsed)
    base_dir = os.path.join(work, "base%d" % (SETUP_REPEATS - 1))
    op_dir = os.path.join(work, "op")

    ops, outcomes = [], []
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    while time.perf_counter() < deadline:
        kernel, size = families[i % len(families)]
        seed = rng.randrange(1 << 31)
        i += 1
        run.attempted += 1
        outcome = resume(run, tune_bin, base_dir, op_dir, kernel, size,
                         STEP_EVALS, seed, "op")
        ok = outcome is not None
        if ok:
            records = journal_records(journal_path(op_dir, kernel, size))
            ok = run.check(BASE_EVALS < records <= BASE_EVALS + STEP_EVALS,
                           "%s resumed journal holds %d records" % (kernel, records))
            # The warm start seeds the best tracker with the journal's best,
            # so resuming can never report a worse best than the base run.
            ok = ok and run.check(outcome.best_ns <= base_best[kernel],
                                  "%s resume lost the journal's best" % kernel)
        if not ok:
            run.failed += 1
            continue
        ops.append((kernel, size, seed))
        outcomes.append(outcome)
    elapsed = time.perf_counter() - started

    if ops:
        kernel, size, seed = ops[0]
        again = resume(run, tune_bin, base_dir, op_dir, kernel, size,
                       STEP_EVALS, seed, "determinism")
        run.check(again is not None and again.stdout == outcomes[0].stdout,
                  "resumed %s tune with a fixed seed is not deterministic" % kernel)

    layers = {}
    if run.trace and ops:
        # Operations cycle through the families evenly, so the per-operation
        # layer cost is the mean over the families.
        per_family = [probe_tune(run, bins, work, kernel, size, "surrogate",
                                 STEP_EVALS, rng.randrange(1 << 31),
                                 journal_path(base_dir, kernel, size))
                      for kernel, size in JOURNAL_FAMILIES]
        layers = {name: statistics.fmean(p[name] for p in per_family)
                  for name in per_family[0]}
        layers["evaluations"] = sum(o.evaluations for o in outcomes)
    times = {}
    for (kernel, _, _), outcome in zip(ops, outcomes):
        times.setdefault(kernel, []).append(outcome.seconds)
    return times, elapsed, median(setup), layers


# ------------------------------------------------------------- serve-mixed

def get_request(kernel, size):
    return json.dumps({"op": "get", "kernel": kernel, "device": DEVICE,
                       "size": size}, separators=(",", ":"))


class LineClient:
    """A blocking line-protocol client for set-up and checks."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def ask(self, line):
        self.sock.sendall(line.encode() + b"\n")
        reply = self.reader.readline()
        if not reply.endswith(b"\n"):
            raise BenchError("daemon closed the connection")
        return reply[:-1].decode()

    def stats(self):
        reply = json.loads(self.ask('{"op":"stats"}'))
        if not reply.get("ok"):
            raise BenchError("stats request failed: %r" % reply)
        return reply["stats"]

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """One atf_served process, started in `cwd` on a relative socket path
    so the path stays short whatever the checkout's location."""

    def __init__(self, binary, cwd, journal_dir, seed):
        self.cwd = cwd
        self.socket = "d.sock"
        self.log = open(os.path.join(cwd, "daemon.log"), "a")
        self.proc = subprocess.Popen(
            [binary, "--socket", self.socket, "--journal-dir", journal_dir,
             "--device", DEVICE, "--seed", str(seed)],
            cwd=cwd, stdin=subprocess.DEVNULL, stdout=self.log,
            stderr=self.log)

    def connect(self, timeout=30.0):
        """Waits until the daemon answers a ping; returns a client."""
        deadline = time.perf_counter() + timeout
        # Relative to the checkout root, where the script runs: an absolute
        # path can pass the 107-byte limit of a Unix socket address.
        path = os.path.relpath(os.path.join(self.cwd, self.socket))
        while True:
            if self.proc.poll() is not None:
                raise BenchError("atf_served exited with %d" % self.proc.returncode)
            try:
                client = LineClient(path)
                if '"ok":true' in client.ask('{"op":"ping"}'):
                    return client
                client.close()
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise BenchError("atf_served did not start serving")
            time.sleep(0.001)

    def stop(self):
        """SIGTERM drain; returns the exit code (killed after a timeout)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def populate(client, keys, timeout=60.0):
    """Tunes every key through the daemon's miss path; returns {key: reply}.

    Each key's first get misses and enqueues it. Then the script waits on
    `stats`, asking no more gets, until every key is refined and published:
    the queue forgets a key when the refiner takes it, so a get during the
    refinement would enqueue the key again. Each key is therefore refined
    exactly once, and its reply is the same in every set-up."""
    before = client.stats()
    for kernel, size in keys:
        reply = json.loads(client.ask(get_request(kernel, size)))
        if not reply.get("ok") or reply.get("hit") or not reply.get("enqueued"):
            raise BenchError("unexpected first reply for %s/%s: %r"
                             % (kernel, size, reply))
    deadline = time.perf_counter() + timeout
    while True:
        stats = client.stats()
        if stats["snapshot_version"] >= before["snapshot_version"] + len(keys):
            break
        if time.perf_counter() > deadline:
            raise BenchError("warm keys never refined")
        time.sleep(0.002)
    refined = stats["refines"] - before["refines"]
    if refined != len(keys):
        raise BenchError("%d of %d warm keys refined" % (refined, len(keys)))
    return {key: client.ask(get_request(*key)) for key in keys}


def serve_mixed(run, bins, rng, seconds, work):
    pools = [rng.sample(pool, len(pool)) for pool in SERVE_POOLS]
    warm = SERVE_FIXED_WARM + [key for pool in pools
                               for key in pool[:SERVE_WARM_PER_FAMILY]]
    rest = [pool[SERVE_WARM_PER_FAMILY:] for pool in pools]
    cold = [key for keys in itertools.zip_longest(*rest) for key in keys if key]
    daemon_seed = rng.randrange(1 << 31)
    daemons = []
    try:
        # Set-up: a fresh daemon tunes every warm key through its own miss
        # path. All set-ups share the daemon seed, so their replies must be
        # byte-identical.
        setup, replies = [], None
        for i in range(SETUP_REPEATS):
            journal_dir = "journals%d" % i
            os.makedirs(os.path.join(work, journal_dir))
            start = time.perf_counter()
            daemons.append(Daemon(bins["served"], work, journal_dir, daemon_seed))
            client = daemons[-1].connect()
            these = populate(client, warm)
            setup.append(time.perf_counter() - start)
            run.span("setup", start, time.perf_counter(), keys=len(warm))
            client.close()
            run.check(daemons[-1].stop() == 0, "atf_served did not drain cleanly")
            if replies is None:
                replies = these
            for key in warm:
                run.check('"hit":true' in these[key], "warm key %s/%s: %s" % (
                    key[0], key[1], these[key]))
                run.check(these[key] == replies[key],
                          "set-up %d replied differently for %s/%s" % (
                              i, key[0], key[1]))

        # Restart over the last journal directory: restart-to-serving time,
        # and every answer must be byte-identical to the one before.
        restarts = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            daemons.append(Daemon(bins["served"], work, journal_dir, daemon_seed))
            client = daemons[-1].connect()
            restarts.append(time.perf_counter() - start)
            run.span("restart", start, time.perf_counter())
            for key in warm:
                run.check(client.ask(get_request(*key)) == replies[key],
                          "reply for %s/%s changed across a restart" % key)
            if len(restarts) < SETUP_REPEATS:
                client.close()
                run.check(daemons[-1].stop() == 0,
                          "atf_served did not drain cleanly")

        plan_path = os.path.join(work, "plan.tsv")
        with open(plan_path, "w") as plan:
            for _ in range(1000):
                key = rng.choice(warm)
                plan.write("%s\t%s\n" % (get_request(*key), replies[key]))
        cold_path = os.path.join(work, "cold.txt")
        with open(cold_path, "w") as cold_file:
            for key in cold:
                cold_file.write(get_request(*key) + "\n")

        start = time.perf_counter()
        proc = subprocess.run(
            [bins["loadgen"], "--socket", daemons[-1].socket, "--seconds",
             repr(seconds), "--callers", str(SERVE_CALLERS), "--plan",
             os.path.abspath(plan_path), "--cold", os.path.abspath(cold_path),
             "--poll-ms", str(SERVE_POLL_MS), "--reused", str(SERVE_REUSED)],
            cwd=work, capture_output=True, text=True, timeout=seconds + 60,
            stdin=subprocess.DEVNULL)
        run.span("load", start, time.perf_counter(), callers=SERVE_CALLERS)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError("loadgen exited with %d" % proc.returncode)
        load = json.loads(proc.stdout.strip().splitlines()[-1])
        run.attempted += load["requests"]
        run.failed += load["errors"]
        run.check(load["errors"] == 0, "%d bad replies" % load["errors"])
        run.check(load["reused_errors"] == 0, "%d bad replies on a reused "
                  "connection" % load["reused_errors"])
        run.check(load["cold_refined"] > 0, "no cold key was refined")

        stats = client.stats()
        client.close()
        for counter in ("malformed", "unrefinable", "dropped_refinements",
                        "failed_refines"):
            run.check(stats[counter] == 0, "daemon counted %d %s" % (
                stats[counter], counter))
        run.check(daemons[-1].stop() == 0, "atf_served did not drain cleanly")
    finally:
        for daemon in daemons:
            daemon.stop()

    count, p50_ns, p90_ns = load["all"][:3]
    e2e = {"p50_ms": p50_ns / 1e6, "p90_ms": p90_ns / 1e6,
           "throughput_per_s": count / load["elapsed_s"]}
    layers = {}
    if run.trace:
        # The hit path without the transport: the first set-up directory
        # holds exactly the warm keys' journals, which the daemon has closed.
        requests_path = os.path.join(work, "hits.tsv")
        with open(requests_path, "w") as out:
            for key in warm:
                out.write("%s\t%s\n" % (get_request(*key), replies[key]))
        layers = probe(run, bins, "serve", "probe.serve",
                       journal_dir=os.path.join(work, "journals0"),
                       requests=requests_path, repeats=HANDLE_REPEATS)
        # One refinement of a warm key, split by layer: what the refiner
        # thread does for every miss.
        kernel, size = warm[len(SERVE_FIXED_WARM)]
        layers.update(probe_tune(run, bins, work, kernel, size, "opentuner",
                                 SERVE_REFINE_STEP, daemon_seed))
        gets = stats["hits"] + stats["misses"]
        layers.update({
            "evaluations": SERVE_REFINE_STEP * stats["refines"],
            "hit_us": load["warm"][1] / 1e3,
            "hit_reused_us": load["reused"][1] / 1e3,
            "miss_us": load["cold_miss"][1] / 1e3,
            "restart_ms": median(restarts) * 1e3,
            "hit_ratio": stats["hits"] / gets if gets else 0.0,
            "cold_keys_refined": load["cold_refined"],
            "refines": stats["refines"],
            "dropped_refinements": stats["dropped_refinements"],
        })
    return e2e, median(setup), layers


# -------------------------------------------------------------------- main

def tune_workload(body):
    """Wraps a tuning workload: its operations' latency and throughput.

    The body returns operation times grouped by kind of operation. The
    latency percentiles are taken per kind and averaged, since a percentile
    of a mix of kinds that take different times jumps between them."""
    def workload(run, bins, rng, seconds, work):
        times, elapsed, setup_s, layers = body(run, bins, rng, seconds, work)
        if not times:
            raise BenchError("no operation completed")
        e2e = {"p50_ms": statistics.fmean(map(median, times.values())) * 1e3,
               "p90_ms": statistics.fmean(map(p90, times.values())) * 1e3,
               "throughput_per_s": sum(map(len, times.values())) / elapsed}
        return e2e, setup_s, layers
    return workload


WORKLOADS = {
    "tune-bigspace": tune_workload(tune_bigspace),
    "tune-surrogate-journal": tune_workload(tune_surrogate_journal),
    "serve-mixed": serve_mixed,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bins = build()
    except BenchError as error:
        print("perfbench: " + str(error), file=sys.stderr)
        return 1

    run = Run(bool(args.trace))
    rng = random.Random("%s/%d" % (args.workload, args.seed))
    work = os.path.abspath(os.path.join(
        BUILD, "runs", "%s-%d" % (args.workload, os.getpid())))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        e2e, setup_s, layers = WORKLOADS[args.workload](run, bins, rng,
                                                        args.seconds, work)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print("perfbench: " + str(error), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if run.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", "%s-seed%d.jsonl" % (
            args.workload, args.seed))
        with open(trace_path, "w") as out:
            for span in run.spans:
                out.write(json.dumps(span) + "\n")
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "p50_ms": {"value": e2e["p50_ms"], "unit": "ms"},
            "p90_ms": {"value": e2e["p90_ms"], "unit": "ms"},
            "throughput_per_s": {"value": e2e["throughput_per_s"], "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
