#!/usr/bin/env python3
"""ReSim repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ReSim checkout. The first run builds the
simulator and the benchmark helpers from source into the build tree
(CARGO_TARGET_DIR if set, else .bench_build), in Release mode. Every
input is generated from --seed; every output is checked. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the workload, measured by
launching the real resim_cli binaries. --trace 1 is the separate traced
run: it reports the per-layer metrics from spans the benchmark records
around public library calls (pb_layers), plus served counters.
"""
import argparse
import glob
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.getcwd()
PB = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("deep_rob_sim", "sampled_stream", "served_mix")
TARGETS = ("resim_cli", "pb_gen", "pb_load", "pb_layers")
SERVE_SETUP_REPS = 20   # daemon spawns before the load phase, and as many after
MIN_REPS = 3            # timed launches per run, even if --seconds is short
# The host probe: a fixed pure-Python loop (HostProbe), and the time that
# timings are scaled to: a round figure within the probe's times on the
# host this benchmark was written on (0.08 to 0.15 s).
PROBE_ITERS = 300_000
PROBE_REF_S = 0.1
# The traced run's spans and its untraced replicas must account for all
# but this share of the pb_layers process's wall time, launch to exit.
MAX_UNSPANNED_SHARE = 0.05

# deep_rob_sim: long gzip-like v2 trace, ROB 256, memory backend.
DEEP_BENCH, DEEP_INSTS = "gzip", 2_000_000
DEEP_SETS = ["core.rob_size=256"]

# sampled_stream: long vortex-like v4 container (as `resim_cli gen --compress
# --prefilter` writes it), stream backend. Each timed launch uses the next
# plan of SAMPLE_PLANS (K windows of W records, U warm-up records before
# each); K differs per plan, which shifts every window, so the accuracy
# figures average over placements instead of resting on one.
SAMPLE_BENCH, SAMPLE_INSTS = "vortex", 10_000_000
SAMPLE_SETS = ["bp.kind=2lev"]
SAMPLE_W, SAMPLE_U = 1000, 10000
SAMPLE_PLANS = tuple(range(200, 208))

# served_mix: two traces; the sim pool is every combination of trace,
# config, window length and ROB size (24 distinct requests), at seeded
# offsets, so the seed moves offsets and contents but not the mix, plus
# each sweep spec over each trace (4). Every SERVE_PARTS waves of the load
# phase send the whole pool once (pb_load); each sweep holds up one sim,
# so 1 sim in 6 waits behind a sweep and the sims' p90 falls among those.
SERVE_TRACES = (("gzip", 200_000), ("parser", 200_000))
SERVE_CONFIGS = ("paper_4wide_perfect.cfg", "paper_2wide_cache.cfg")
SERVE_WINDOWS = (10_000, 20_000, 40_000)
SERVE_ROBS = (16, 64)
SERVE_CONNS = 2
SERVE_THREADS = 1
SERVE_SESSIONS = 3      # daemons the load phase is split over; peak RSS is their median
SERVE_PARTS = 4         # waves that together send the pool once, each between host probes
# The traced run's BatchRunner::run, at up to this many threads, so its
# decode-sharing and parallel-efficiency figures have more than one worker.
LAYER_THREADS = 4
# A busy or error reply counts as this latency, so it misses any limit.
FAILED_MS = 1e9
SWEEP_SPECS = ("""pipeline.variant = optimized
core.width = 2,4
core.rob_size = 16,32
bp.kind = 2lev,bimodal
""", """pipeline.variant = efficient
core.width = 2,4
core.rob_size = 64,128
bp.kind = 2lev,bimodal
""")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(-(-q * len(s) // 100)) - 1))]


# --- build and provenance ---------------------------------------------------

def read_cache(build_dir):
    out = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
            if m:
                out[m.group(1)] = m.group(2)
    return out


def build(build_dir):
    for need in ("CMakeLists.txt", "src", "tools/resim_cli.cpp",
                 "configs/paper_4wide_perfect.cfg", "configs/paper_2wide_cache.cfg"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"run from the root of a ReSim checkout ({need} is missing)")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, nproc())))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PB, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *TARGETS])
    with open(build_log, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {build_log})")
    build_type = read_cache(build_dir).get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise BenchError(f"refusing to measure a '{build_type}' build: only Release "
                         "measures the program users run")


def provenance(build_dir):
    cache = read_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            compiler = f"{cid.group(1)} {ver.group(1)}"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    if commit is None:
        # An exported checkout has no history: identify the sources instead.
        h = hashlib.sha256()
        files = [os.path.join(ROOT, "CMakeLists.txt")]
        for top in ("src", "tools", os.path.relpath(PB, ROOT)):
            for d, _, names in os.walk(os.path.join(ROOT, top)):
                files += [os.path.join(d, n) for n in names]
        for path in sorted(files):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
        commit = "sources-sha256:" + h.hexdigest()[:16]
    return {"nproc": nproc(), "compiler": compiler, "commit": commit,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


# --- processes --------------------------------------------------------------

class Ctx:
    def __init__(self, build_dir, work, seed, seconds):
        self.cli = os.path.join(build_dir, "resim", "resim_cli")
        self.bin = build_dir
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.host = HostProbe()

    def path(self, name):
        return os.path.join(self.work, name)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def launch(args, cwd, tag):
    """Run one process to completion. Returns (exit code, wall seconds from
    launch to exit, peak RSS in MB from wait4's rusage, stdout text)."""
    out_path = os.path.join(cwd, tag + ".out")
    with open(out_path, "wb") as out, open(os.path.join(cwd, tag + ".err"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, cwd=cwd, stdout=out, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        return p.returncode, wall, ru.ru_maxrss / 1024.0, f.read()


def must(ctx, args, tag):
    rc, wall, rss, out = launch(args, ctx.work, tag)
    if rc != 0:
        raise BenchError(f"{tag}: exit code {rc}: {' '.join(args)}")
    return wall, rss, out


def gen_trace(ctx, bench, insts, name, compress=False):
    args = [os.path.join(ctx.bin, "pb_gen"), "--bench", bench, "--seed", str(ctx.seed),
            "--insts", str(insts), "--out", name]
    if compress:
        args.append("--compress")
    _, _, out = must(ctx, args, "gen-" + name)
    return int(out.split()[0])


def cfg_path(name):
    return os.path.join(ROOT, "configs", name)


def set_args(sets):
    return [x for s in sets for x in ("--set", s)]


class HostProbe:
    """Scales timings to one host speed. The hosts this runs on change
    speed by up to 2x, over seconds to minutes, and a whole run can sit in
    a slow or a fast phase, so no statistic over one run's raw timings
    repeats from run to run (see perfbench/README.md). Each measured step
    therefore runs between two probes: a fixed pure-Python loop that runs
    no code of the repository, whose time tracks the host's speed. A
    step's timings are multiplied by PROBE_REF_S over the mean time of its
    two probes, so they read as on a host where the probe takes
    PROBE_REF_S; a change to the program scales them as it scales the raw
    ones."""

    def __init__(self):
        self.last = None
        self.secs = []

    def probe(self):
        t0 = time.perf_counter()
        x, counts = 0, {}
        for _ in range(PROBE_ITERS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            counts[x & 4095] = counts.get(x & 4095, 0) + 1
        self.last = time.perf_counter() - t0
        self.secs.append(self.last)
        return self.last

    def step(self, run):
        """Runs run() between two probes; returns (its result, the scale)."""
        before = self.probe() if self.last is None else self.last
        result = run()
        return result, PROBE_REF_S / statistics.fmean((before, self.probe()))

    def note(self, ctx):
        ctx.notes.append(f"host probe: {len(self.secs)} probes, median "
                         f"{median(self.secs):.4f} s (reference {PROBE_REF_S} s)")


def timed_loop(ctx, one, runs):
    """Call one(i) between host probes until --seconds have passed (at
    least MIN_REPS times), and add the launch it returns to runs at the
    probes' scale."""
    i = 0
    t0 = time.perf_counter()
    while i < MIN_REPS or time.perf_counter() < t0 + ctx.seconds:
        launched, scale = ctx.host.step(lambda: one(i))
        runs.add(*launched, scale)
        i += 1


class Launches:
    """Timed one-shot resim_cli sim launches; a launch whose output check
    fails counts as FAILED_MS. Each is preceded by a set-up launch (the
    same invocation capped at one record), so the set-up samples spread
    over the whole run instead of sitting at its start. Every timing is
    scaled by the host probe around its launch (HostProbe); the unscaled
    figures are printed as a note."""

    def __init__(self):
        self.ms, self.rss, self.setup, self.raw_setup = [], [], [], []
        self.records, self.walls, self.raw_walls = 0, 0.0, 0.0  # over passing launches

    def set_up(self, ctx, args, tag):
        rc, wall, _, _ = launch(args + ["--max-records", "1"], ctx.work, tag)
        ctx.check(rc == 0, f"{tag} launch {len(self.setup)} exit {rc}")
        return wall

    def add(self, ok, records, wall, rss, setup_wall, scale):
        self.setup.append(setup_wall * scale)
        self.raw_setup.append(setup_wall)
        self.ms.append(wall * scale * 1e3 if ok else FAILED_MS)
        if ok:
            self.records += records
            self.walls += wall * scale
            self.raw_walls += wall
            self.rss.append(rss)

    def metrics(self, ctx, what):
        if not self.rss:
            raise BenchError(f"{what}: no launch passed its output check")
        n, ok = len(self.ms), len(self.rss)
        ctx.notes.append(f"unscaled: minsts_per_s {self.records / self.raw_walls / 1e6:.6g}, "
                         f"req_per_s {ok / self.raw_walls:.6g}, "
                         f"setup_s {median(self.raw_setup):.6g}")
        return {
            "minsts_per_s": (self.records / self.walls / 1e6, "Minsts/s", ok),
            "setup_s": (median(self.setup), "s", len(self.setup)),
            "peak_rss_mb": (median(self.rss), "MB", ok),
            "sim_req_p50_ms": (percentile(self.ms, 50), "ms", n),
            "sim_req_p90_ms": (percentile(self.ms, 90), "ms", n),
            "req_per_s": (ok / self.walls, "1/s", ok),
        }, {"sim_req_p99_ms": (percentile(self.ms, 99), "ms", n)}


# --- deep_rob_sim -----------------------------------------------------------

def deep_inputs(ctx):
    return gen_trace(ctx, DEEP_BENCH, DEEP_INSTS, "deep.rsim")


def deep_rob_sim(ctx):
    records = deep_inputs(ctx)
    base = [ctx.cli, "sim", "--trace", "deep.rsim", "--config",
            cfg_path("paper_4wide_perfect.cfg"), *set_args(DEEP_SETS)]

    def result_of(path):
        with open(ctx.path(path)) as f:
            d = json.load(f)
        d["config"].pop("trace.backend")  # the one field that names the backend
        return d

    must(ctx, base + ["--backend", "stream", "--json", "ref.json"], "deep-ref")
    ref = result_of("ref.json")
    runs = Launches()

    def one(i):
        setup = runs.set_up(ctx, base + ["--backend", "memory"], "deep-setup")
        if os.path.exists(ctx.path("run.json")):
            os.remove(ctx.path("run.json"))
        rc, wall, peak, _ = launch(base + ["--backend", "memory", "--json", "run.json"],
                                   ctx.work, "deep-run")
        ok = ctx.check(rc == 0 and result_of("run.json") == ref,
                       f"deep run {i}: exit {rc} or --json differs from the stream reference")
        return ok, records, wall, peak, setup

    timed_loop(ctx, one, runs)
    return runs.metrics(ctx, "deep_rob_sim")


# --- sampled_stream ---------------------------------------------------------

def sample_inputs(ctx):
    return gen_trace(ctx, SAMPLE_BENCH, SAMPLE_INSTS, "samp.rsim", compress=True)


def plan_sets(k):
    return [f"sample.windows={k}", f"sample.window_insts={SAMPLE_W}",
            f"sample.warmup_insts={SAMPLE_U}"]


def estimate_lines(out):
    return [line for line in out.splitlines() if line.startswith("estimate ")]


def estimate(out, name):
    m = re.search(rf"^estimate {name} (\S+) ", out, re.M)
    if not m:
        raise BenchError(f"sampled run printed no '{name}' estimate")
    return float(m.group(1))


def sample_base(ctx):
    return [ctx.cli, "sim", "--trace", "samp.rsim", "--config",
            cfg_path("paper_2wide_cache.cfg"), *set_args(SAMPLE_SETS)]


def sample_accuracy(ctx):
    """mmap-backend estimate lines of every plan (the output reference),
    and the mean gap (%) of the IPC and L1 MPKI estimates to one full
    detailed run of the same trace. Deterministic for a seed."""
    base = sample_base(ctx)
    must(ctx, base + ["--backend", "stream", "--json", "full.json"], "samp-full")
    with open(ctx.path("full.json")) as f:
        full = json.load(f)
    counters = full["stats"]["counters"]
    full_ipc = full["result"]["ipc"]
    # The CLI's sampled "mpki" estimate counts il1 + dl1 misses.
    full_mpki = 1000.0 * (counters.get("il1.misses", 0) + counters.get("dl1.misses", 0)) \
        / full["result"]["committed"]
    refs, ipc_err, mpki_err = {}, [], []
    for k in SAMPLE_PLANS:
        _, _, out = must(ctx, base + ["--backend", "mmap", *set_args(plan_sets(k))], "samp-ref")
        refs[k] = estimate_lines(out)
        ipc_err.append(100.0 * abs(estimate(out, "ipc") - full_ipc) / full_ipc)
        mpki_err.append(100.0 * abs(estimate(out, "mpki") - full_mpki) / full_mpki)
    return refs, {
        "sampled_ipc_err_pct": (statistics.fmean(ipc_err), "%", len(ipc_err)),
        "sampled_mpki_err_pct": (statistics.fmean(mpki_err), "%", len(mpki_err)),
    }


def sampled_stream(ctx):
    sample_inputs(ctx)
    base = sample_base(ctx)
    refs, accuracy = sample_accuracy(ctx)
    runs, shares = Launches(), []

    def one(i):
        setup = runs.set_up(ctx, base + ["--backend", "stream"], "samp-setup")
        k = SAMPLE_PLANS[i % len(SAMPLE_PLANS)]
        rc, wall, peak, out = launch(base + ["--backend", "stream", *set_args(plan_sets(k))],
                                     ctx.work, "samp-run")
        m = re.search(r"^sampled: detailed (\d+) records, warmup (\d+), chunk-skipped (\d+)",
                      out, re.M)
        ok = ctx.check(rc == 0 and m is not None and estimate_lines(out) == refs[k],
                       f"sampled run {i}: estimates differ from the mmap reference")
        covered = sum(int(g) for g in m.groups()) if ok else 0
        if ok:
            shares.append(int(m.group(1)) / covered)
        return ok, covered, wall, peak, setup

    timed_loop(ctx, one, runs)
    metrics, extras = runs.metrics(ctx, "sampled_stream")
    ctx.notes.append(f"detail share {median(shares):.4f} of covered records")
    return metrics, {**extras, **accuracy}


# --- served_mix -------------------------------------------------------------

def frame(obj):
    payload = json.dumps(obj).encode()
    return struct.pack("<I", len(payload)) + payload


def read_frame(sock):
    def exact(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
        return buf
    (n,) = struct.unpack("<I", exact(4))
    return json.loads(exact(n))


def control(sock_path, msg_type, timeout=30.0):
    """One ping/shutdown/status exchange; returns the reply frames' payloads."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        if read_frame(s).get("type") != "hello":
            raise BenchError("daemon sent no hello")
        s.sendall(frame({"type": msg_type, "id": "pb"}))
        replies = []
        while True:
            r = read_frame(s)
            replies.append(r)
            if r.get("type") in ("pong", "done", "error"):
                return replies


class Daemon:
    """resim_cli serve in the work directory; stop() shuts it down and
    returns its peak RSS (MB) from wait4."""

    def __init__(self, ctx, threads):
        self.sock = os.path.join(os.path.relpath(ctx.work, ROOT), "d.sock")
        if os.path.exists(self.sock):
            os.remove(self.sock)
        self.err = open(ctx.path("daemon.err"), "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([ctx.cli, "serve", "--socket", "d.sock", "-j", str(threads)],
                                     cwd=ctx.work, stdout=self.err, stderr=self.err)

    def wait_ready(self, limit_s=60.0):
        """Seconds from spawn until the first ping is answered."""
        while True:
            if self.proc.poll() is not None:
                raise BenchError("serve exited during start-up")
            try:
                if control(self.sock, "ping")[-1].get("type") == "pong":
                    return time.perf_counter() - self.t0
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if time.perf_counter() - self.t0 > limit_s:
                self.kill()
                raise BenchError("serve did not answer ping")
            time.sleep(0.0001)

    def stop(self):
        try:
            control(self.sock, "shutdown")
        except Exception:  # whatever went wrong, the daemon must still end
            self.proc.kill()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.err.close()
        return ru.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.err.close()


def serve_shape():
    """The served set-up is fixed, so results compare across hosts; a host
    that cannot give every connection and daemon thread a CPU is refused
    rather than measured oversubscribed."""
    cores = nproc()
    if SERVE_CONNS > cores or SERVE_THREADS > cores:
        raise BenchError(f"served_mix: {SERVE_CONNS} connections / {SERVE_THREADS} daemon "
                         f"threads exceed nproc={cores}")
    return SERVE_CONNS, SERVE_THREADS


def serve_inputs(ctx, threads):
    """Generate the two traces and the seeded request pool, and compute
    every request's one-shot CLI body (the byte-identity reference)."""
    rng = random.Random(ctx.seed)
    traces = []
    for bench, insts in SERVE_TRACES:
        name = f"srv-{bench}.rsim"
        traces.append((name, gen_trace(ctx, bench, insts, name)))
    pool = []
    for (name, records), cfg, window, rob in itertools.product(traces, SERVE_CONFIGS,
                                                                SERVE_WINDOWS, SERVE_ROBS):
        sets = [f"core.rob_size={rob}", "trace.backend=memory"]
        skip = rng.randrange(0, records - window)
        ref = f"ref-sim-{len(pool)}.json"
        must(ctx, [ctx.cli, "sim", "--trace", name, "--config", cfg_path(cfg), *set_args(sets),
                   "--skip", str(skip), "--warmup", "1000", "--max-records", str(window),
                   "--json", ref], "srv-ref")
        with open(cfg_path(cfg)) as f:
            config_text = f.read()
        pool.append({"kind": "sim", "trace": name, "config_text": config_text, "sets": sets,
                     "skip": skip, "warmup": 1000, "max_records": window, "ref": ref,
                     "records": window})
    for i, spec in enumerate(SWEEP_SPECS):
        with open(ctx.path(f"sweep{i}.spec"), "w") as f:
            f.write(spec)
        points = 1
        for line in spec.splitlines():
            points *= len(line.split("=")[1].split(","))
        for name, records in traces:
            ref = f"ref-sweep{i}-{name}.csv"
            sets = ["trace.backend=mmap"]
            must(ctx, [ctx.cli, "sweep", "--spec", f"sweep{i}.spec", "--trace", name,
                       *set_args(sets), "-j", str(threads), "--out", ref], "srv-ref")
            pool.append({"kind": "sweep", "trace": name, "spec_text": spec, "sets": sets,
                         "ref": ref, "records": points * records})
    with open(ctx.path("pool.json"), "w") as f:
        json.dump(pool, f)
    return pool


def serve_wave(ctx, part, poll_ms):
    """Wave `part` of pb_load against the running daemon: every SERVE_PARTS
    waves send the whole pool once."""
    rc, _, _, out = launch([os.path.join(ctx.bin, "pb_load"), "--socket", "d.sock",
                            "--pool", "pool.json", "--conns", str(SERVE_CONNS),
                            "--seed", str(ctx.seed), "--part", str(part % SERVE_PARTS),
                            "--parts", str(SERVE_PARTS), "--poll-ms", str(poll_ms)],
                           ctx.work, "load")
    if rc != 0:
        raise BenchError(f"pb_load exit code {rc}")
    res = json.loads(out.strip().splitlines()[-1])
    for r in res["requests"]:
        ctx.check(r["ok"], f"served {r['kind']} pool[{r['pool']}]: {r['error']}")
    return res


def serve_session(ctx, threads, seconds, poll_ms=0, host=None):
    """Waves against a fresh daemon until `seconds` have passed and the
    pool has been sent whole, each wave between host probes when `host` is
    given. Returns [(wave result, scale)] and the daemon's peak RSS."""
    daemon = Daemon(ctx, threads)
    waves = []
    try:
        daemon.wait_ready()
        t0 = time.perf_counter()
        while len(waves) % SERVE_PARTS or time.perf_counter() < t0 + seconds:
            part = len(waves)
            if host is None:
                waves.append((serve_wave(ctx, part, poll_ms), 1.0))
            else:
                waves.append(host.step(lambda: serve_wave(ctx, part, poll_ms)))
    except BaseException:
        daemon.kill()
        raise
    rss = daemon.stop()
    ctx.check(daemon.proc.returncode == 0, f"serve exit code {daemon.proc.returncode}")
    return waves, rss


def serve_setup(ctx, threads):
    """Seconds from spawn to the first answered ping, SERVE_SETUP_REPS times."""
    setup = []
    for _ in range(SERVE_SETUP_REPS):
        d = Daemon(ctx, threads)
        try:
            setup.append(d.wait_ready())
        except BaseException:
            d.kill()
            raise
        d.stop()
        ctx.check(d.proc.returncode == 0, f"serve exit code {d.proc.returncode}")
    return setup


def served_mix(ctx):
    conns, threads = serve_shape()
    pool = serve_inputs(ctx, threads)
    def spawns():
        secs, scale = ctx.host.step(lambda: serve_setup(ctx, threads))
        return secs, [t * scale for t in secs]

    # Set-up samples before and after the load phase, so they span the run.
    raw_setup, setup = spawns()
    waves, rss = [], []
    for _ in range(SERVE_SESSIONS):
        w, peak = serve_session(ctx, threads, ctx.seconds / SERVE_SESSIONS, host=ctx.host)
        waves += w
        rss.append(peak)
    raw_after, after = spawns()
    raw_setup += raw_after
    setup += after
    sims, sweeps = [], []
    wall = raw_wall = 0.0
    done = simulated = 0
    for res, scale in waves:
        wall += res["wave_s"] * scale
        raw_wall += res["wave_s"]
        for r in res["requests"]:
            ms = r["ms"] * scale if r["ok"] else FAILED_MS
            (sims if r["kind"] == "sim" else sweeps).append(ms)
            if r["ok"]:
                done += 1
                simulated += pool[r["pool"]]["records"]
    if not done:
        raise BenchError("served_mix: no request passed its output check")
    ctx.notes.append(f"{conns} connections, serve -j {threads}, {len(waves)} waves sending "
                     f"the {len(pool)}-request pool {len(waves) // SERVE_PARTS} times over "
                     f"{SERVE_SESSIONS} daemons, status after the last wave "
                     f"{waves[-1][0]['status']}")
    ctx.notes.append(f"unscaled: minsts_per_s {simulated / raw_wall / 1e6:.6g}, "
                     f"req_per_s {done / raw_wall:.6g}, setup_s {median(raw_setup):.6g}")
    return {
        "minsts_per_s": (simulated / wall / 1e6, "Minsts/s", done),
        "setup_s": (median(setup), "s", len(setup)),
        "peak_rss_mb": (median(rss), "MB", len(rss)),
        "sim_req_p50_ms": (percentile(sims, 50), "ms", len(sims)),
        "sim_req_p90_ms": (percentile(sims, 90), "ms", len(sims)),
        "req_per_s": (done / wall, "1/s", done),
    }, {
        "sim_req_p99_ms": (percentile(sims, 99), "ms", len(sims)),
        "sweep_req_p50_ms": (percentile(sweeps, 50), "ms", len(sweeps)),
    }


# --- traced run -------------------------------------------------------------

def traced(ctx, workload):
    """Per-layer metrics: spans around library calls (pb_layers) plus a
    served load phase whose client latencies, minus the direct
    serve::run_* time of the same request, give the queue wait."""
    _, threads = serve_shape()
    deep_inputs(ctx)
    sample_inputs(ctx)
    _, accuracy = sample_accuracy(ctx)
    pool = serve_inputs(ctx, threads)
    waves, _ = serve_session(ctx, threads, max(1, ctx.seconds // 3), poll_ms=100)
    requests = [r for res, _ in waves for r in res["requests"]]
    # Outside the work directory, which is removed when the run ends.
    spans = os.path.join(ctx.bin, "spans", f"{workload}-s{ctx.seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    rc, wall, _, out = launch([os.path.join(ctx.bin, "pb_layers"), "--workload", workload,
                               "--deep", "deep.rsim", "--deep-config",
                               cfg_path("paper_4wide_perfect.cfg"), "--sampled", "samp.rsim",
                               "--sampled-config", cfg_path("paper_2wide_cache.cfg"),
                               "--window", str(SAMPLE_W), "--warmup", str(SAMPLE_U),
                               "--windows", str(SAMPLE_PLANS[0]), "--pool", "pool.json",
                               "--threads", str(min(LAYER_THREADS, nproc())),
                               "--spans", spans],
                              ctx.work, "layers")
    if rc != 0:
        raise BenchError(f"pb_layers exit code {rc}")
    layers = json.loads(out.strip().splitlines()[-1])
    ctx.attempted += layers["attempted"]
    ctx.failed += layers["failed"]
    ctx.notes += layers["notes"] + [f"spans written to {os.path.relpath(spans, ROOT)}"]
    spanned = layers["traced_wall_s"] + layers["untraced_s"]
    ctx.check(spanned <= wall and wall - spanned <= MAX_UNSPANNED_SHARE * wall,
              f"pb_layers ran {wall:.3f} s, its spans and untraced replicas {spanned:.3f} s")
    ctx.notes.append(f"pb_layers process {wall:.3f} s, spanned {spanned:.3f} s")
    if len(layers["direct_ms"]) != len(pool):
        raise BenchError("pb_layers did not time every pool request")
    waits = [r["ms"] - layers["direct_ms"][r["pool"]]
             for r in requests if r["kind"] == "sim" and r["ok"]]
    st = waves[-1][0]["status"]
    metrics = {k: tuple(v) for k, v in layers["metrics"].items()}
    metrics.update(accuracy)
    sims = [r["ms"] if r["ok"] else FAILED_MS for r in requests if r["kind"] == "sim"]
    sweeps = [r["ms"] if r["ok"] else FAILED_MS for r in requests if r["kind"] == "sweep"]
    metrics["sim_req_p99_ms"] = (percentile(sims, 99), "ms", len(sims))
    metrics["sweep_req_p50_ms"] = (percentile(sweeps, 50), "ms", len(sweeps))
    lookups = st["trace_cache_hits"] + st["trace_cache_loads"]
    metrics.update({
        "serve.queue_wait_ms.p50": (percentile(waits, 50), "ms", len(waits)),
        "serve.queue_wait_ms.p99": (percentile(waits, 99), "ms", len(waits)),
        "serve.trace_cache_hit_ratio": (st["trace_cache_hits"] / lookups if lookups else 0.0,
                                        "ratio", lookups),
        "serve.pending_max": (max(res["pending_max"] for res, _ in waves), "count",
                              sum(res["status_polls"] for res, _ in waves)),
        "serve.rejected_busy": (st["rejected_busy"], "count", 1),
        "serve.failed": (st["failed"], "count", 1),
    })
    return metrics


# --- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        raise BenchError("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    prov = provenance(build_dir)
    work = os.path.join(build_dir, "work", f"{a.workload}-s{a.seed}-t{a.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Ctx(build_dir, work, a.seed, a.seconds)

    extras = {}
    if a.trace:
        metrics = traced(ctx, a.workload)
    else:
        run = {"deep_rob_sim": deep_rob_sim, "sampled_stream": sampled_stream,
               "served_mix": served_mix}[a.workload]
        metrics, extras = run(ctx)
        ctx.host.note(ctx)

    print(f"# workload {a.workload} seed {a.seed} seconds {a.seconds} trace {a.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for note in ctx.notes:
        print(f"# note {note}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    # Printed here and tracked as per-layer metrics, not bounded: see
    # "End-to-end metrics" in perfbench/README.md.
    for name, (value, unit, n) in extras.items():
        print(f"{name} = {value:.6g} {unit} (n={n}) [unbounded]")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
