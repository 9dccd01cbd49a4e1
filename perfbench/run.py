#!/usr/bin/env python3
"""End-to-end benchmark of ERMES through the real `ermes` CLI and daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --repeat K
    python3 perfbench/run.py --workload NAME --seed N --seconds S --write-pins

Run it from the root of an ERMES source tree. It builds `ermes` and the
per-layer probe from source with dune into `.bench_build/`, makes the
workload's inputs from the seed, runs a fixed sequence of ops sized to take
about S seconds, checks every output, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured with tracing off;
with --trace 1 they are its per-layer ones, from a traced run (README.md in
this directory says how each is measured and what it should move).

--repeat K runs the workload K times in a row at seeds N..N+K-1 and prints,
for each end-to-end metric, the median, the quartiles and the gap between
the medians of the first and the second half of the runs.

--write-pins records the answers of this seed into pins.json instead of
checking them against it. Pinned answers are a correctness contract: a
change that claims a speed-up must never regenerate them.
"""

import argparse
import gc
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
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_BUILD = os.path.join(BUILD, "dune")
ERMES = os.path.join(DUNE_BUILD, "default", "bin", "ermes.exe")
PROBE = os.path.join(DUNE_BUILD, "default", "perfbench", "probe", "probe.exe")
PINS = os.path.join(BENCH, "pins.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

OP_TIMEOUT_S = 170
MESH_SIZE = 180  # CI's scale-smoke mesh: 97,384 TMG transitions, 7 MB
# The README's target, for every seed: the exploration's length swings from
# 19 s to 29 s across targets within 0.7% of it, so a seed-drawn target
# would spread the runs of one commit wider than any usable bound.
DSE_TCT = 150000
FUZZ_CASES = 100
# At the CLI's default horizon (96 rounds) the simulators' period detection
# can take a transient for the steady state on multi-rate designs (README.md).
FUZZ_ROUNDS = 384
CLIENT = "perfbench"

# Nominal op costs on a 2-core x86 host. They only size the fixed op
# sequence of a run from --seconds; nothing measured feeds back into them.
NOMINAL_S = {"analyze-mesh": 5.5, "dse-mpeg2": 24.0, "fuzz-campaign": 0.9, "serve-mix": 1 / 90}


class Fatal(Exception):
    """The benchmark cannot run at all (no sources, build failure)."""


# ---- build ------------------------------------------------------------------


def build():
    missing = [p for p in ("dune-project", "bin/ermes.ml", "lib") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise Fatal("not an ERMES source tree, missing: " + ", ".join(missing))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The dune cache and the compilers' temporary files stay in the tree.
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, XDG_CACHE_HOME=os.path.join(BUILD, "cache"))
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", DUNE_BUILD,
             "./bin/ermes.exe", "./perfbench/probe/probe.exe"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Fatal(f"dune build failed: {e}")
    if proc.returncode != 0:
        raise Fatal("dune build failed:\n" + proc.stdout + proc.stderr)


# ---- processes --------------------------------------------------------------


class Proc:
    def __init__(self, code, out, wall, rss_mb):
        self.code, self.out, self.wall, self.rss_mb = code, out, wall, rss_mb


def run_proc(argv, cwd, timeout=OP_TIMEOUT_S):
    """Run one process to completion: exit code, merged output, wall seconds
    and its own peak RSS (from wait4)."""
    out_path = os.path.join(cwd, "proc.out")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as f:
        return Proc(p.returncode, f.read(), wall, ru.ru_maxrss / 1024.0)


def ermes(r, *args):
    return run_proc([ERMES, *args], r.dir)


def probe(r, *args):
    out = r.fresh("probe.json")
    p = run_proc([PROBE, *args, out], r.dir)
    if p.code != 0:
        raise Fatal(f"probe {args[0]} failed: {p.out.strip()[-400:]}")
    with open(out) as f:
        return json.load(f)


def chrome_trace(path):
    """(spans, counters) of an Obs Chrome trace: spans as (name, start, end) in
    seconds, counters as a dict."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [(e["name"], e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6) for e in events if e["ph"] == "X"]
    counters = {e["name"]: e["args"]["value"] for e in events if e["ph"] == "C"}
    return spans, counters


# ---- statistics -------------------------------------------------------------


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_time(parents, children):
    """Summed duration of the parent spans minus the part of each that the
    given child spans cover."""
    total = 0.0
    for a, b in parents:
        total += (b - a) - covered([(max(a, c), min(b, d)) for c, d in children if c < b and d > a])
    return total


# ---- a run ------------------------------------------------------------------


class Run:
    def __init__(self, workload, seed, seconds, trace, write_pins):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.write_pins = write_pins
        self.dir = os.path.join(BUILD, "work", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        with open(PINS) as f:
            self.all_pins = json.load(f)
        self.pins = self.all_pins.setdefault(workload, {}).setdefault(str(seed), {})
        self.latencies = []  # seconds, one per timed op
        self.rss = []  # MB
        self.layers = {}
        self.files = 0
        self.daemons = []  # stopped when the run ends, however it ends

    def path(self, name):
        return os.path.join(self.dir, name)

    def fresh(self, name):
        """A path for a trace file that no earlier op of the run has used."""
        self.files += 1
        return self.path(f"{self.files:03d}-{name}")

    def op(self, problems):
        """Account one op; `problems` lists its failed checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)

    def pinned(self, key, value):
        """A failed check message when `value` disagrees with the pin of
        `key`, None when it agrees or no pin exists. --write-pins records it."""
        if self.write_pins:
            self.pins[key] = value
            return None
        if key in self.pins and self.pins[key] != value:
            return f"{key}: got {value!r}, pinned {self.pins[key]!r}"
        return None

    def save_pins(self):
        pins = {w: {k: v for k, v in by.items() if v} for w, by in self.all_pins.items()}
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")

    def span_layer(self, name, ops):
        """`name`_ms and `name`_mwords: the per-op sum of the probe's spans of
        that name, median over ops."""
        per_op = []
        for spans in ops:
            groups = {}
            for s in spans:
                if s["name"] == name:
                    g = groups.setdefault(s["op"], [0.0, 0.0])
                    g[0] += s["end"] - s["start"]
                    g[1] += s["words"]
            per_op.extend(groups.values())
        if per_op:
            self.layers[name + "_ms"] = 1000 * statistics.median(t for t, _ in per_op)
            self.layers[name + "_mwords"] = statistics.median(w for _, w in per_op) / 1e6

    def counter_layers(self, counters):
        for metric, name in COUNTERS.items():
            self.layers[metric] = statistics.median(c.get(name, 0) for c in counters)


def ops_for(r, minimum=1):
    return max(minimum, round(r.seconds / NOMINAL_S[r.workload]))


def closed_loop(r, n, op):
    """Run n ops back to back; op() returns the Proc it timed."""
    t0 = time.perf_counter()
    for i in range(n):
        p = op(i)
        r.latencies.append(p.wall)
        r.rss.append(p.rss_mb)
    return n / (time.perf_counter() - t0)


def timed(f):
    t0 = time.perf_counter()
    v = f()
    return v, time.perf_counter() - t0


def median_timed(f, k=5):
    """Median wall time of k fresh repetitions of a short set-up step."""
    return statistics.median(timed(f)[1] for _ in range(k))


# ---- analyze-mesh -----------------------------------------------------------

CT_LINE = re.compile(r"^cycle time (\S+) ", re.M)
CERT_LINE = re.compile(r"^certificate: bounded: .* checked$", re.M)


def check_analyze(r, p, mesh, answers):
    """The failed checks of one op on mesh `mesh`: a checked bounded
    certificate, and the cycle time of the mesh's pin and of the run's first
    answer for that mesh."""
    problems = []
    if p.code != 0:
        problems.append(f"analyze exited {p.code}")
    if not CERT_LINE.search(p.out):
        problems.append("analyze: no checked bounded certificate")
    m = CT_LINE.search(p.out)
    ct = m.group(1) if m else None
    first = answers.setdefault(mesh, ct)
    if ct is None or ct != first:
        problems.append(f"analyze mesh {mesh}: cycle time {ct}, first answer {first}")
    pin = r.pinned(f"mesh {mesh}", ct)
    return problems + ([pin] if pin else [])


def analyze_mesh(r):
    # One op per mesh. The workload seed is the first mesh's seed and the
    # others derive from it: a run on one mesh would cost what that mesh
    # costs, and Howard's policy iterations range from 208 to 384 across
    # mesh seeds 1 to 9 (5.3 s to 7.2 s an op).
    rng = random.Random(f"analyze-mesh/{r.seed}")
    meshes = [r.seed] + [rng.randrange(1, 1 << 30) for _ in range(ops_for(r, minimum=2) - 1)]
    size = str(MESH_SIZE)
    answers = {}

    def analyze(mesh, *extra):
        p = ermes(r, "analyze", "--certify", f"mesh{mesh}.soc", *extra)
        r.op(check_analyze(r, p, mesh, answers))
        return p

    # Every op is a fresh process and reads a mesh the set-up has just
    # written, so the warm-up op only has to page the binary in: a 20x20
    # mesh does that in milliseconds, where a 180x180 one would cost an op.
    def setup():
        for name, seed, side in [("warmup", r.seed, "20")] + [(f"mesh{m}", m, size) for m in meshes]:
            g = ermes(r, "generate", "--family", "mesh", "--rows", side, "--cols", side, "--seed", str(seed),
                      "-o", name + ".soc")
            if g.code != 0:
                raise Fatal("generate failed: " + g.out)
        w = ermes(r, "analyze", "--certify", "warmup.soc")
        if w.code != 0 or not CERT_LINE.search(w.out):
            raise Fatal("warm-up analyze failed: " + w.out[-400:])

    setup_s = median_timed(setup, k=3)
    ops_per_s = closed_loop(r, len(meshes), lambda i: analyze(meshes[i]))
    if r.trace:
        traced, solves, probes, counters = [], [], [], []
        for mesh in meshes[:3]:
            trace = r.fresh("trace.json")
            p = analyze(mesh, "--trace", trace)
            spans, c = chrome_trace(trace)
            traced.append(p.wall)
            solves.append(sum(b - a for n, a, b in spans if n == "csr.solve"))
            counters.append(c)
            rep = probe(r, "analyze", f"mesh{mesh}.soc")
            res = rep["result"]
            if not (res["checked"] and res["analysis"].startswith(f"cycle time {answers[mesh]} ")):
                r.op([f"probe analysis of mesh {mesh} disagrees: {res}"])
            probes.append(rep)
        # The program spans its solves itself; the probe times the calls it
        # does not span. The words a solve allocates come from the probe.
        probed = ["soc_format.parse", "to_tmg.build", "csr.freeze", "verify.certify", "perf.report"]
        for name in probed + ["csr.solve"]:
            r.span_layer(name, [rep["spans"] for rep in probes])
        r.layers["csr.solve_ms"] = 1000 * statistics.median(solves)
        # Measured against the binary's traced op, so a probe that no longer
        # follows bin/ermes.ml shows here.
        r.layers["layers.unattributed_ratio"] = statistics.median(
            1 - (solve + sum(s["end"] - s["start"] for s in rep["spans"] if s["name"] in probed)) / wall
            for rep, solve, wall in zip(probes, solves, traced))
        r.layers["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced, r.latencies))
        r.counter_layers(counters)
    return setup_s, ops_per_s


# ---- dse-mpeg2 --------------------------------------------------------------

FINAL_LINE = re.compile(r"converged\s+CT=(\d+)\s+area=([0-9.]+)")


def dse_mpeg2(r):
    tct = DSE_TCT
    r.pins = r.all_pins[r.workload].setdefault(f"tct {tct}", {})

    # Every op is a fresh process, so warming up only has to bring the binary
    # and the design into the page cache: an analysis does that in
    # milliseconds, a warm-up exploration would cost 24 s a run.
    def setup():
        g, a = ermes(r, "mpeg2", "-o", "mpeg2.soc"), ermes(r, "analyze", "mpeg2.soc")
        if g.code != 0 or a.code != 0:
            raise Fatal("mpeg2 set-up failed: " + g.out + a.out)

    setup_s = median_timed(setup)
    outs = []

    def op(i):
        out = f"out{i}.soc"
        p = ermes(r, "dse", "mpeg2.soc", "--tct", str(tct), "-o", out)
        outs.append((p, out))
        return p

    ops_per_s = closed_loop(r, ops_for(r), op)
    for p, out in outs:  # checked outside the timed window
        r.op(check_dse(r, p, out, tct))
    if r.trace:
        # One more op, traced and checkpointed: the program's spans and
        # counters come from its --trace file, and the probe replays each
        # step's ILP call from its journal.
        trace, journal = r.fresh("trace.json"), r.fresh("dse.journal")
        p = ermes(r, "dse", "mpeg2.soc", "--tct", str(tct), "-o", "traced.soc",
                  "--trace", trace, "--checkpoint", journal)
        r.op(check_dse(r, p, "traced.soc", tct))
        rep = probe(r, "dse", "mpeg2.soc", str(tct), journal)
        res = rep["result"]
        if res["diverged_steps"]:
            print(f"perfbench: {res['diverged_steps']} replayed ILP step(s) differ from the exploration's;"
                  " branch_bound.nodes counts the replayed ones", file=sys.stderr)
        spans, counters = chrome_trace(trace)
        iters = [(a, b) for n, a, b in spans if n == "explore.iteration"]
        inner = [(a, b) for n, a, b in spans if n in ("order.apply_safe", "csr.solve")]
        ms = lambda name: 1000 * sum(b - a for n, a, b in spans if n == name)
        r.layers["explore.ilp_self_ms"] = 1000 * self_time(iters, inner)
        r.layers["order.apply_safe_ms"] = ms("order.apply_safe")
        r.layers["csr.warm_solve_ms"] = ms("csr.solve")
        r.layers["explore.iterations"] = res["steps"]
        r.layers["branch_bound.nodes"] = sum(s["count"] for s in rep["spans"] if s["name"] == "ilp_select")
        r.layers["layers.unattributed_ratio"] = 1 - covered(iters + inner) / p.wall
        r.layers["trace.overhead_ratio"] = p.wall / statistics.median(r.latencies)
        r.counter_layers([counters])
    return setup_s, ops_per_s


def check_dse(r, p, out, tct):
    final = FINAL_LINE.search(p.out)
    if p.code != 0 or "target met" not in p.out or not final:
        return [f"dse exited {p.code} without meeting its target"]
    ct, area = final.group(1), float(final.group(2))
    again = ermes(r, "analyze", out)
    m = CT_LINE.search(again.out)
    problems = [r.pinned("cycle_time", ct)]
    if again.code != 0 or not m or m.group(1) != ct:
        problems.append(f"dse: {out} analyzes to {m and m.group(1)}, the exploration printed {ct}")
    if r.write_pins:
        r.pins["area"] = area
    elif "area" in r.pins and area > r.pins["area"]:
        problems.append(f"dse: final area {area} at target {tct}, pinned {r.pins['area']}")
    return [e for e in problems if e]


# ---- fuzz-campaign ----------------------------------------------------------

FUZZ_LINE = re.compile(r"^fuzz: seed (\d+), (\d+) cases: \d+ live, \d+ dead, \d+ faults injected, (\d+) failure\(s\)$", re.M)


def fuzz_campaign(r):
    rng = random.Random(f"fuzz-campaign/{r.seed}")
    seeds = [rng.randrange(1, 1 << 30) for _ in range(ops_for(r) + 1)]

    # --no-rtl: the RTL oracle runs a third of the horizon, where the same
    # false periods show at any affordable one (README.md). The probe still
    # times the co-simulation on every case of the traced campaigns.
    def campaign(s, *extra):
        p = ermes(r, "fuzz", "--seed", str(s), "--cases", str(FUZZ_CASES), "--rounds", str(FUZZ_ROUNDS),
                  "--no-repro", "--no-rtl", *extra)
        m = FUZZ_LINE.search(p.out)
        if p.code != 0 or not m or m.group(1) != str(s) or m.group(3) != "0":
            r.op([f"fuzz --seed {s} exited {p.code}: {p.out.strip()[-200:]}"])
        else:
            pin = r.pinned(str(s), m.group(0))
            r.op([pin] if pin else [])
        return p, m and m.group(0)

    setup_s = median_timed(lambda: campaign(seeds[0]))
    ops_per_s = closed_loop(r, len(seeds) - 1, lambda i: campaign(seeds[i + 1])[0])
    if r.trace:
        traced, probes, counters = [], [], []
        for s in seeds[1:4]:
            trace = r.fresh("trace.json")
            p, line = campaign(s, "--trace", trace)
            traced.append(p.wall)
            counters.append(chrome_trace(trace)[1])
            rep = probe(r, "fuzz", str(s), str(FUZZ_CASES), str(FUZZ_ROUNDS))
            if rep["result"]["summary"] != line:
                r.op([f"probe campaign disagrees: {rep['result']['summary']} vs {line}"])
            probes.append(rep)
        for name in ("fuzz.gen_case", "differential.run_case", "soc_rtl.cosim", "sim.steady"):
            r.span_layer(name, [rep["spans"] for rep in probes])

        # Measured against the binary's traced campaign. Sim also runs inside
        # run_case, so its own span is not added again; the co-simulation
        # runs only in the probe.
        in_campaign = ("fuzz.gen_case", "differential.run_case")
        r.layers["layers.unattributed_ratio"] = statistics.median(
            1 - sum(s["end"] - s["start"] for s in rep["spans"] if s["name"] in in_campaign) / wall
            for rep, wall in zip(probes, traced))
        # The traced campaigns are the run's first three, campaign for campaign.
        r.layers["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced, r.latencies))
        r.counter_layers(counters)
        r.layers["rtl.interp_cycles"] = statistics.median(rep["result"]["interp_cycles"] for rep in probes)
    return setup_s, ops_per_s


# ---- serve-mix --------------------------------------------------------------


class Conn:
    """A framed-JSON connection to the daemon (see lib/serve/proto.mli): each
    frame is its length in decimal, a newline and the JSON text."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(60)  # a reply later than this counts as missing
        self.sock.connect(path)
        self.buf = b""

    def call(self, payload):
        """Send one encoded request and return its decoded reply."""
        self.sock.sendall(b"%d\n" % len(payload) + payload)
        while True:
            nl = self.buf.find(b"\n")
            end = nl + 1 + int(self.buf[:nl]) if nl >= 0 else None
            if end is not None and len(self.buf) >= end:
                frame, self.buf = self.buf[nl + 1:end], self.buf[end:]
                return json.loads(frame)
            data = self.sock.recv(1 << 20)
            if not data:
                raise OSError("the daemon closed the connection")
            self.buf += data


def encode(obj):
    return json.dumps(obj, separators=(",", ":")).encode()


class Daemon:
    """`ermes serve --workers 1`, with one connection that has said hello."""

    def __init__(self, r, name, *extra):
        self.sock = os.path.relpath(r.path(name + ".sock"), ROOT)
        self.log = open(r.path(name + ".log"), "wb")
        self.rss_mb = 0.0
        self.p = subprocess.Popen([ERMES, "serve", "--socket", self.sock, "--workers", "1", *extra],
                                  cwd=ROOT, stdin=subprocess.DEVNULL, stdout=self.log, stderr=subprocess.STDOUT)
        r.daemons.append(self)
        deadline = time.perf_counter() + 30
        while True:
            try:
                self.conn = Conn(self.sock)
                break
            except OSError:
                if self.p.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise Fatal("ermes serve did not start")
                time.sleep(0.002)
        hello = self.conn.call(encode({"id": 0, "verb": "hello", "proto_version": 1, "client": CLIENT}))
        if hello.get("status") != "ok":
            raise Fatal(f"hello refused: {hello}")

    def stop(self):
        """SIGTERM, wait, and return the daemon's peak RSS in MB."""
        if self.p.returncode is None:
            self.p.send_signal(signal.SIGTERM)
            timer = threading.Timer(30, self.p.kill)
            timer.start()
            _, status, ru = os.wait4(self.p.pid, 0)
            timer.cancel()
            self.p.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = ru.ru_maxrss / 1024.0
        self.log.close()
        return self.rss_mb


class Corpus:
    """The serve-mix designs, all made by `ermes generate` from the seed:
    bases of tens to a few hundred processes (the hot set, and the parents of
    every fresh design) and MPEG-2-sized designs to lint."""

    # Process counts are fixed and only the designs vary with the seed, so
    # that one seed's corpus costs what another's does.
    BASES = [24, 48, 72, 120, 180, 240]
    LINTS = 3

    def __init__(self, r):
        rng = random.Random(f"serve-corpus/{r.seed}")
        self.bases, self.impls, self.lints = [], [], []
        sizes = [(p, p * 5 // 2) for p in self.BASES] + [(26, 60)] * self.LINTS
        for k, (procs, chans) in enumerate(sizes):
            name = f"design{k}.soc"
            g = ermes(r, "generate", "--processes", str(procs), "--channels", str(chans),
                      "--seed", str(rng.randrange(1, 1 << 30)), "-o", name)
            if g.code != 0:
                raise Fatal("generate failed: " + g.out)
            with open(r.path(name)) as f:
                text = f.read()
            if k < len(self.BASES):
                self.bases.append(text)
                self.impls.append([(line.split()[1], line.count(" impl ")) for line in text.splitlines()
                                   if line.startswith("process ")])
            else:
                self.lints.append(text)

    def variant(self, rng, k, edits):
        """Base k with `edits` selection changes: a design the cache has not
        seen, with the base's structure."""
        picks = rng.sample([p for p in self.impls[k] if p[1] > 1], edits)
        chosen = tuple(sorted((name, rng.randrange(1, n)) for name, n in picks))
        return chosen, self.bases[k] + "".join(f"select {p} {i}\n" for p, i in chosen)


# One block of the mix, shuffled. The bases span a tenfold range of sizes, so
# every class spreads over the same range of costs and neither the median nor
# p90 sits on a boundary between two classes.
MIX = ["miss"] * 8 + ["hit"] * 4 + ["session"] * 4 + ["lint"] * 4


def serve_requests(r, corpus, n):
    """The seeded sequence of n requests: (class, request, expectation key)."""
    # Two streams, so that a longer run extends a shorter one's requests.
    rng, rng_mix = (random.Random(f"serve-{part}/{r.seed}") for part in ("requests", "mix"))
    classes = []
    while len(classes) < n:
        block = MIX[:]
        rng_mix.shuffle(block)
        classes += block
    seen, seq, session = set(), [], None
    for i, cls in enumerate(classes[:n]):
        req = {"id": i + 1}
        k = rng.randrange(len(corpus.bases))
        key = None
        if cls == "miss":
            while True:
                chosen, text = corpus.variant(rng, k, 2)
                if (k, chosen) not in seen:
                    seen.add((k, chosen))
                    break
            req.update(verb="analyze", design=text)
            key = f"b{k}:" + ",".join(f"{p}={v}" for p, v in chosen)
        elif cls == "hit":
            req.update(verb="analyze", design=corpus.bases[k])
            key = f"b{k}"
        elif cls == "lint":
            req.update(verb="lint", design=corpus.lints[k % len(corpus.lints)], warnings_ok=True)
        elif session is None:
            session = (f"s{i % 4}", k)
            req.update(verb="session-open", session=session[0], design=corpus.bases[k])
            cls = "session-open"
        else:
            name, k = session
            chosen, text = corpus.variant(rng, k, 1)
            req.update(verb="analyze", session=name, design=text)
            key = f"b{k}:" + ",".join(f"{p}={v}" for p, v in chosen)
            session, cls = None, "session"
        seq.append((cls, req, key))
    return seq


def check_reply(r, cls, req, reply, key, hot):
    if reply is None:
        return [f"{cls}: no reply"]
    if reply.get("id") != req["id"]:
        return [f"{cls}: reply to request {reply.get('id')}, expected {req['id']}"]
    if reply.get("status") != "ok":
        return [f"{cls}: status {reply.get('status')} ({reply.get('error')})"]
    if cls == "lint":
        return [] if reply.get("errors") == 0 else [f"lint: {reply.get('errors')} errors"]
    if not reply.get("certificate_checked"):
        return [f"{cls}: certificate not checked"]
    ct = reply.get("cycle_time")
    if cls == "session" and reply.get("path") != "warm":
        return [f"session analyze took the {reply.get('path')} path"]
    if cls == "hit":
        problems = [] if reply.get("cached") else ["hit: not served from the cache"]
        return problems + ([] if hot.get(key) == ct else [f"hit {key}: {ct}, first answer {hot.get(key)}"])
    if cls == "session-open":
        return [] if reply.get("path") == "fresh" else [f"session-open took the {reply.get('path')} path"]
    pin = r.pinned(key, ct)
    return [pin] if pin else []


def serve_pass(r, corpus, seq, *extra):
    """Start a daemon, pass over the hot set, then send the sequence closed
    loop: one request at a time on one connection, each sent when the reply
    to the one before has arrived. Returns the daemon, the round trip of each
    reply, the replies per second, and the request log (class, request) in
    the order sent."""
    d = Daemon(r, f"serve{len(extra)}", *extra)
    hot, log = {}, []
    for k, text in enumerate(corpus.bases):
        req = {"id": 0, "verb": "analyze", "design": text}
        reply = d.conn.call(encode(req))
        log.append(("analyze_miss", req))
        problems = [] if reply.get("status") == "ok" and reply.get("certificate_checked") else [f"hot b{k}: {reply}"]
        hot[f"b{k}"] = reply.get("cycle_time")
        pin = r.pinned(f"b{k}", hot[f"b{k}"])
        r.op(problems + ([pin] if pin else []))
    payloads = [encode(req) for _, req, _ in seq]
    replies, rtts = [], []
    gc.disable()  # a collection pause in the client would read as daemon latency
    t0 = time.perf_counter()
    try:
        for payload in payloads:
            sent = time.perf_counter()
            try:
                replies.append(d.conn.call(payload))
            except OSError:
                break  # timed out or closed: this request and the rest go unanswered
            rtts.append(time.perf_counter() - sent)
    finally:
        elapsed = time.perf_counter() - t0
        gc.enable()
    replies += [None] * (len(seq) - len(replies))
    for (cls, req, key), reply in zip(seq, replies):
        r.op(check_reply(r, cls, req, reply, key, hot))
        label = {"miss": "analyze_miss", "hit": "analyze_hit", "lint": "lint"}.get(cls, "session")
        log.append((label, req))
    return d, rtts, len(rtts) / elapsed, log


def serve_mix(r):
    setups = []
    for _ in range(5):  # set-up is short: report the median of fresh ones
        t0 = time.perf_counter()
        corpus = Corpus(r)
        d = Daemon(r, "setup")
        for text in corpus.bases:
            d.conn.call(encode({"id": 0, "verb": "analyze", "design": text}))
        setups.append(time.perf_counter() - t0)
        d.stop()
    seq = serve_requests(r, corpus, ops_for(r, minimum=len(MIX)))
    d, r.latencies, ops_per_s, log = serve_pass(r, corpus, seq)
    r.rss.append(d.stop())
    r.op([] if d.p.returncode == 0 else [f"ermes serve exited {d.p.returncode} on SIGTERM"])
    if r.trace:
        # a second daemon, so the run's misses miss again
        d2, rtts2, _, _ = serve_pass(r, corpus, seq, "--trace", os.path.relpath(r.fresh("trace.json"), ROOT))
        metrics = d2.conn.call(encode({"id": 0, "verb": "metrics"}))
        d2.stop()
        with open(r.fresh("metrics.json"), "w") as f:
            json.dump(metrics, f)
        requests = r.fresh("requests.log")
        with open(requests, "w") as f:
            for cls, req in log:
                f.write(cls + "\t" + json.dumps(req, separators=(",", ":")) + "\n")
        rep = probe(r, "serve", requests)
        statuses = rep["result"]["statuses"]
        if statuses.count("ok") != len(statuses):
            r.op([f"in-process replay: {len(statuses) - statuses.count('ok')} request(s) not ok"])
        first = len(corpus.bases)  # the hot pass is set-up, not the run
        by_op = {}
        for s in rep["spans"]:
            by_op.setdefault(s["op"], []).append(s)
        codec = [sum(s["end"] - s["start"] for s in by_op[i] if s["name"].startswith("proto."))
                 for i in range(first, len(log))]
        codec_words = [sum(s["words"] for s in by_op[i] if s["name"].startswith("proto."))
                       for i in range(first, len(log))]
        r.layers["proto.codec_ms"] = 1000 * statistics.median(codec)
        r.layers["proto.codec_mwords"] = statistics.median(codec_words) / 1e6
        run_spans = [s for s in rep["spans"] if s["op"] >= first]
        for name in ("handler.analyze_miss", "handler.analyze_hit", "handler.session", "handler.lint",
                     "soc_format.parse"):
            r.span_layer(name, [run_spans])
        stats = {s["name"]: s for s in metrics.get("spans", [])}
        counters = metrics.get("counters", {})
        verb_s = {n[len("serve.verb."):]: s["total_ms"] / s["calls"] / 1000 for n, s in stats.items()
                  if n.startswith("serve.verb.") and s["calls"]}
        handled = [verb_s.get(req["verb"], 0) for _, req, _ in seq[:len(rtts2)]]
        # With one request in flight nothing queues: this is the daemon's
        # reading, dispatch and writing around its handler, per request.
        r.layers["serve.queue_wait_ms"] = 1000 * statistics.mean(
            rtt - c - h for rtt, c, h in zip(rtts2, codec, handled))
        hits, misses = counters.get("serve.cache_hits", 0), counters.get("serve.cache_misses", 0)
        r.layers["cache.hit_ratio"] = hits / max(1, hits + misses)
        admitted = max(1, counters.get("serve.admitted", 0))
        r.layers["howard.solves_per_request"] = (counters.get("howard.solve.cold", 0) + counters.get("howard.solve.warm", 0)) / admitted
        r.layers["obs.span_events"] = sum(s["calls"] for s in stats.values())
        r.layers["serve.rejected"] = counters.get("serve.rejected", 0) + counters.get("serve.timeouts", 0)
        r.layers["serve.reply_ms_p90"] = 1000 * p90(r.latencies)
        sessions = [cls for cls, _, _ in seq if cls.startswith("session")]
        r.layers["csr.warm_solve_ms"] = stats.get("csr.solve", {}).get("total_ms", 0) / max(1, len(sessions))
        r.layers["layers.unattributed_ratio"] = 1 - (sum(handled) + sum(codec[:len(rtts2)])) / sum(rtts2)
        r.layers["trace.overhead_ratio"] = statistics.median(rtts2) / statistics.median(r.latencies)
        r.counter_layers([counters])
    return statistics.median(setups), ops_per_s


# ---- per-layer helpers ------------------------------------------------------

WORKLOADS = {
    "analyze-mesh": analyze_mesh,
    "dse-mpeg2": dse_mpeg2,
    "fuzz-campaign": fuzz_campaign,
    "serve-mix": serve_mix,
}

# Per-layer metrics read from the program's own Obs counters, per op.
COUNTERS = {
    "csr.freezes": "csr.freeze",
    "csr.cold_solves": "csr.solve.cold",
    "csr.warm_solves": "csr.solve.warm",
    "csr.policy_iterations": "csr.iterations.policy",
    "rtl.interp_cycles": "rtl.interp.cycles",
    "sim.cycles": "sim.cycles",
}


def spec():
    with open(SPEC) as f:
        return json.load(f)


def measure(args):
    build()
    r = Run(args.workload, args.seed, args.seconds, args.trace, args.write_pins)
    try:
        setup_s, ops_per_s = WORKLOADS[args.workload](r)
        if r.write_pins:
            r.save_pins()
        s = spec()
        if not r.trace:
            values = {
                "setup_s": setup_s,
                "ops_per_s": ops_per_s,
                "latency_ms_p50": 1000 * statistics.median(r.latencies),
                "peak_rss_mb": max(r.rss),
            }
            wanted = s["end_to_end"]
        else:
            values = r.layers
            wanted = s["per_layer"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    finally:
        for d in r.daemons:
            d.stop()
        if r.trace:  # the spans of a traced run outlive it
            kept = os.path.join(BUILD, "traces", f"{r.workload}-{r.seed}")
            shutil.rmtree(kept, ignore_errors=True)
            os.makedirs(kept)
            for name in os.listdir(r.dir):
                if name[:3].isdigit():
                    shutil.move(r.path(name), kept)
        shutil.rmtree(r.dir, ignore_errors=True)
    for e in r.errors[:20]:
        print("check failed: " + e, file=sys.stderr)
    if len(r.errors) > 20:
        print(f"... and {len(r.errors) - 20} more failed checks", file=sys.stderr)
    return {"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}


def repeat(args):
    """The steadiness self-check: K fresh runs in a row."""
    runs = []
    for k in range(args.repeat):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed + k),
                "--seconds", str(args.seconds), "--trace", "0"]
        p = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=900)
        if p.returncode != 0:
            raise Fatal(f"run {k} failed:\n{p.stderr[-2000:]}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {args.seed + k}: " + " ".join(f"{n}={m['value']:.5g}" for n, m in res["metrics"].items())
              + f" failed={res['failed']}/{res['attempted']}", flush=True)
    report = {}
    half = len(runs) // 2
    for name in runs[0]["metrics"]:
        vals = [run["metrics"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        first, second = statistics.median(vals[:half] or vals), statistics.median(vals[half:])
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                        "halves_gap": (second - first) / first if first else 0.0}
        print(f"{name:16s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  spread {report[name]['spread']:6.2%}  "
              f"halves gap {report[name]['halves_gap']:+6.2%}")
    ok = all(run["correct"] for run in runs)
    return {"correct": ok, "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs), "steadiness": report}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        result = repeat(args) if args.repeat else measure(args)
    except Fatal as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
