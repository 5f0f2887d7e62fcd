#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the program from source into .bench_build/perfbench, runs one
workload for about S seconds, checks the outputs, prints every metric by
name with its unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (a separate, traced run).

Workloads: wan-queue, cluster-wide and loopback-fleet (in BENCHMARK.json)
and wan-contended (runnable, not in BENCHMARK.json: the current program
fails its ECF oracle there; see README.md)."""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchmath  # noqa: E402

BUILD = os.path.join(REPO, ".bench_build", "perfbench")
GEN = os.path.join(BUILD, "perfbench_gen")
MUSICD = os.path.join(BUILD, "musicd")

WORKLOADS = ("wan-queue", "wan-contended", "cluster-wide", "loopback-fleet")
OPS = ("create_lock_ref", "acquire_lock", "critical_put", "critical_get",
       "release_lock")
# The §X-B4 cost model: WAN round trips per uncontended operation.
XB4_RTTS = {"create_lock_ref": 4, "acquire_lock": 1, "critical_put": 1,
            "critical_get": 1, "release_lock": 4}


class RunFailed(Exception):
    """The run cannot produce a result (build, setup or generator failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# ---- build ------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(REPO, "src")):
        raise RunFailed("no program sources next to perfbench/ (need "
                        "CMakeLists.txt and src/ at the checkout root)")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RunFailed("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
           "perfbench_gen", "musicd"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RunFailed("build failed")


def provenance(seed, gen_info):
    commit = "unknown"
    if os.path.isdir(os.path.join(REPO, ".git")):
        r = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(REPO, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"seed": seed, "nproc": nproc(), "commit": commit,
            "source_sha256": digest.hexdigest()[:16],
            "build_type": gen_info.get("build_type"),
            "compiler": gen_info.get("compiler")}


# ---- generator plumbing -----------------------------------------------------

def run_gen(args, timeout):
    r = subprocess.run([GEN] + args, capture_output=True, text=True,
                       timeout=timeout)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise RunFailed("perfbench_gen %s exited %d" % (args[0], r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


# Every fleet process dies with this one, whatever ends it: setpriv sets
# PR_SET_PDEATHSIG and execs the process.  (A preexec_fn could do the same
# but makes Python fork instead of vfork: 2.5 ms per process, three
# quarters of the fleet's start-up time and the noisiest part of it.)
LAUNCH = ["setpriv", "--pdeathsig", "KILL", "--"]


def set_policy(pid, policy, priority):
    """Scheduling policy of `pid` (0: this process).  Where the host
    refuses real-time priority (no CAP_SYS_NICE) the fleet runs at normal
    priority and the run says so."""
    try:
        os.sched_setscheduler(pid, policy, os.sched_param(priority))
    except OSError:
        pass


def place(pid, cpu):
    """With 4+ cores a fleet process owns one of them: pinned, the fleet's
    run-to-run spread in throughput and memory is about a third of the
    unpinned spread on the sizing host.  It also runs at real-time
    priority: a fleet process that wakes takes its core from any ordinary
    process at once, so other work on the machine does not set the fleet's
    latency tail (with four busy-looping processes beside it, unprioritised,
    the sub-phase p99s doubled; prioritised, they stayed within the quiet
    range)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 4:
        os.sched_setaffinity(pid, {cpus[cpu]})
    set_policy(pid, os.SCHED_FIFO, 1)


class Report:
    """Collects metric lines, correctness problems and the result object."""

    def __init__(self):
        self.e2e = {}
        self.layer = {}
        self.problems = []
        self.notes = []
        self.attempted = 0
        self.failed = 0

    def metric(self, table, name, value, unit, info):
        table[name] = {"value": value, "unit": unit}
        print("  %-36s %14.6g %-6s %s" % (name, value, unit, info))

    def e2e_metric(self, name, value, unit, info):
        self.metric(self.e2e, name, value, unit, info)

    def layer_metric(self, name, value, unit, info):
        self.metric(self.layer, name, value, unit, info)

    def extra_line(self, name, value, unit="", info=""):
        if isinstance(value, (int, float)):
            print("  %-36s %14.6g %-6s %s" % (name, value, unit, info))
        else:
            print("  %-36s %s %s" % (name, value, info))

    def problem(self, msg):
        self.problems.append(msg)
        print("  CHECK FAILED: %s" % msg)


def ms(us):
    return us / 1000.0


def latency_metrics(rep, samples_us, prefix, add):
    """p50 and the tail percentile the sample count supports."""
    n = len(samples_us)
    if n == 0:
        rep.problem("%s: no latency samples" % prefix)
        return
    p50 = benchmath.percentile(samples_us, 50)
    add(prefix + "p50_ms", ms(p50), "ms", "(median of n=%d)" % n)
    p, val, k = benchmath.tail(samples_us, 99.0)
    if p == 99.0:
        add(prefix + "p99_ms", ms(val), "ms",
            "(p99 of n=%d, %d beyond)" % (n, k))
    else:
        # Too few samples for a p99: report the highest supported one.
        add(prefix + "p99_ms", ms(val if val is not None else p50), "ms",
            "(n=%d too small for p99; this is p%s, %d beyond)" % (n, p, k))


# ---- simulated workloads ----------------------------------------------------

# Host seconds one world takes (this repo's 4-core sizing host), used to
# fit a run into --seconds.  The count is a function of --seconds only, so
# a seed always means the same worlds.
WORLD_HOST_S = {"wan-queue": 0.25, "wan-contended": 0.9, "cluster-wide": 1.8}


def run_sim_workload(workload, seed, seconds, trace, rep):
    per = WORLD_HOST_S[workload] * (2.4 if trace else 1.0)
    worlds = max(3 if not trace else 2, int(round(seconds / per)))
    args = ["sim", "--workload", workload, "--seed", str(seed),
            "--worlds", str(worlds), "--trace", "1" if trace else "0"]
    out = run_gen(args, timeout=170)
    ws = out["worlds"]
    print("%s: %d worlds, seeds %s, %s" % (
        workload, len(ws), ",".join(str(w["seed"]) for w in ws),
        "PDES %d workers" % out["pdes_workers"] if out["pdes_workers"]
        else "classic scheduler"))

    ok_total = sum(w["ok_total"] for w in ws)
    rep.attempted = sum(w["attempted"] for w in ws)
    rep.failed = sum(w["failed"] for w in ws)
    violations = sum(w["violations"] for w in ws)
    for w in ws:
        for e in w["errors"]:
            rep.problem("world %d: %s" % (w["seed"], e))
        if w["violations"]:
            rep.problem("world %d: ECF oracle: %s" % (
                w["seed"], w["violation_report"].strip().splitlines()[0]))

    lat = [x for w in ws for x in w["lat_us"]]
    solo = [x for w in ws for x in w["solo_us"]]
    if not trace:
        print("end-to-end (simulated clock; host rates on this host):")
        rates = [w["cs_per_s"] for w in ws]
        rep.e2e_metric("cs_per_s", statistics.median(rates), "1/s",
                       "(median of %d worlds, %.0f s simulated window each)"
                       % (len(ws), ws[0]["stop_s"] - ws[0]["warmup_s"]))
        latency_metrics(rep, lat, "cs_", rep.e2e_metric)
        rep.e2e_metric("solo_cs_p50_ms", ms(benchmath.percentile(solo, 50)),
                       "ms", "(median of n=%d, one client alone)" % len(solo))
        setups = out["setup_only_s"] + [w["setup_s"] for w in ws]
        rep.e2e_metric("setup_s", statistics.median(setups), "s",
                       "(median of n=%d world builds)" % len(setups))
        rep.e2e_metric("peak_rss_mb", out["peak_rss_kb"] / 1024.0, "MB",
                       "(generator process)")
        # Printed, not gated: host speed on a shared machine swings too far
        # between runs for any bound (see README.md).  A shared host only
        # ever slows a world down, so the fastest world is the steadiest
        # reading of the program's own speed.
        host = [w["ok_total"] / w["run_host_s"] for w in ws]
        rep.extra_line("host_cs_per_s", max(host), "1/s",
                       "(fastest of %d worlds; median %.0f; simulated "
                       "sections per host s)" % (len(ws), statistics.median(host)))
    else:
        layer_sim(rep, ws, ok_total)
    # Correctness lines, printed in both modes.
    rep.extra_line("cs_fail_ratio",
                   str(benchmath.Ratio(rep.failed, rep.attempted,
                                       "failed", "attempted sections")))
    rep.extra_line("ecf_violations", violations, "count",
                   "(oracle, %d worlds)" % len(ws))
    if ws[0]["fault_s"] > 0:
        recs = []
        for w in ws:
            r, recovered = benchmath.recovery_s(w["rate"], w["warmup_s"],
                                                w["fault_s"], w["heal_s"])
            recs.append(r)
            if not recovered:
                rep.notes.append("world %d never recovered its rate" % w["seed"])
        rep.extra_line("recovery_s", statistics.median(recs), "s",
                       "(median of %d worlds: %s)" % (
                           len(recs), " ".join("%g" % r for r in recs)))
    return out


def layer_sim(rep, ws, ok_total):
    print("per-layer (traced run; host figures from the untraced twin):")
    un = [w["untraced"] for w in ws]
    events = sum(u["events"] for u in un)
    host_s = sum(u["run_host_s"] for u in un)
    base = "%d ok sections" % ok_total
    rep.layer_metric("sim.events_per_cs", events / ok_total, "count",
                     "(%d events / %s)" % (events, base))
    best = min(un, key=lambda u: u["run_host_s"] / u["events"])
    rep.layer_metric("sim.host_ns_per_event",
                     best["run_host_s"] * 1e9 / best["events"], "ns",
                     "(fastest of %d worlds: %.3f host s / %d events)"
                     % (len(un), best["run_host_s"], best["events"]))
    allocs = sum(u["allocs"] for u in un)
    abytes = sum(u["alloc_bytes"] for u in un)
    rep.layer_metric("sim.allocs_per_cs", allocs / ok_total, "count",
                     "(%d allocs / %s)" % (allocs, base))
    rep.layer_metric("sim.alloc_bytes_per_cs", abytes / ok_total, "B",
                     "(%d B / %s)" % (abytes, base))
    windows = sum(w["windows"] for w in ws)
    sim_s = sum(w["sim_s"] for w in ws)
    rep.layer_metric("pdes.events_per_window",
                     events / windows if windows else 0.0, "count",
                     "(%d events / %d windows)" % (events, windows) if windows
                     else "(classic scheduler: no PDES windows)")
    rep.layer_metric("pdes.windows_per_sim_s", windows / sim_s, "1/s",
                     "(%d windows / %.1f simulated s)" % (windows, sim_s))
    m = {k: sum(w["music"][k] for w in ws) for k in ws[0]["music"]}
    rep.layer_metric("core.acquire_polls_per_cs",
                     m["acquire_attempts"] / ok_total, "count",
                     "(%d acquireLock polls at the replicas / %s)"
                     % (m["acquire_attempts"], base))
    rep.layer_metric("core.acquire_grant_ratio",
                     m["acquire_granted"] / m["acquire_attempts"], "ratio",
                     "(%d granted / %d polls)"
                     % (m["acquire_granted"], m["acquire_attempts"]))
    c = {k: sum(w["client"][k] for w in ws) for k in ws[0]["client"]}
    rep.layer_metric("client.retries_per_cs", c["retries"] / ok_total, "count",
                     "(%d retries / %s)" % (c["retries"], base))
    fault_layers(rep, m, ok_total, base)
    op_layers(rep, {op: [x for w in ws for x in w["op_us"][op]] for op in OPS})
    net = {k: sum(w["net"][k] for w in ws) for k in ws[0]["net"]}
    for name, key, what in (
            ("lockstore.paxos_msgs_per_cs", "paxos_msgs",
             "Paxos prepare+accept+commit messages"),
            ("datastore.quorum_msgs_per_cs", "quorum_msgs",
             "store read+write+ack+repair messages"),
            ("net.wan_msgs_per_cs", "wan_msgs", "cross-site messages")):
        rep.layer_metric(name, net[key] / ok_total, "count",
                         "(%d %s / %s)" % (net[key], what, base))
    rep.layer_metric("net.bytes_per_cs", net["bytes"] / ok_total, "B",
                     "(%d B the simulated network carried / %s)"
                     % (net["bytes"], base))
    rep.layer_metric("net.invokes_per_cs", c["attempts"] / ok_total, "count",
                     "(%d client requests sent / %s)" % (c["attempts"], base))
    invoke_layers(rep, [x for w in ws for x in w["invoke_us"]],
                  "simulated clock, through the timing decorator",
                  "cluster::Cluster's group clients have no transport seam")
    rep.layer_metric("net.reconnects", 0, "count",
                     "(simulated network: no connections)")
    wire_layers(rep, [w["wire"] for w in ws], c["attempts"] / ok_total)
    cpu = sum(u["run_cpu_s"] for u in un)
    rep.layer_metric("fleet.cpu_ms_per_kcs", 0.0, "ms",
                     "(no musicd processes in a simulated world)")
    rep.layer_metric("loadgen.cpu_ms_per_kcs", cpu * 1e6 / ok_total, "ms",
                     "(%.2f generator CPU s, untraced twins / %s)" % (cpu, base))
    traced = sum(w["run_host_s"] for w in ws)
    rep.layer_metric("trace.overhead_ratio", traced / host_s, "ratio",
                     "(%.3f traced host s / %.3f untraced host s, same worlds)"
                     % (traced, host_s))
    if "rtts" in ws[0] and any(ws[0]["span_self_us"]):
        xb4_check(rep, ws)
        spans = {}
        for w in ws:
            for name, (us, n) in w["span_self_us"].items():
                s = spans.setdefault(name, [0, 0])
                s[0] += us
                s[1] += n
        for name in sorted(spans):
            us, n = spans[name]
            rep.extra_line("span.%s.self_ms_per_cs" % name, us / 1000.0 / ok_total,
                           "ms", "(%d spans, %.0f ms self / %s)"
                           % (n, us / 1000.0, base))
        dropped = sum(w["dropped_spans"] for w in ws)
        if dropped:
            rep.notes.append("tracer dropped %d spans" % dropped)


def op_layers(rep, op_us):
    for op in OPS:
        samples = op_us.get(op, [])
        if op == "critical_get":
            # Not every workload reads; reported as a line, not a metric.
            if samples:
                rep.extra_line("client.critical_get.p50_ms",
                               ms(benchmath.percentile(samples, 50)), "ms",
                               "(n=%d)" % len(samples))
            continue
        latency_metrics(rep, samples, "client.%s." % op, rep.layer_metric)


FAULT_COUNTERS = ("forced_releases", "synchronizations", "rejected_not_holder")


def fault_layers(rep, music, ok_total, base):
    """Replica-side fault-path counters per thousand ok sections; `music`
    is None where the replicas are out of reach (the fleet)."""
    for k in FAULT_COUNTERS:
        if music is None:
            rep.layer_metric("core.%s_per_kcs" % k, 0.0, "count",
                             "(not observable: musicd exports no counters)")
        else:
            rep.layer_metric("core.%s_per_kcs" % k, music[k] * 1000.0 / ok_total,
                             "count", "(%d %s / %s)" % (music[k], k, base))


def invoke_layers(rep, invoke_us, clock, missing):
    """Request-to-response latency at the client seam."""
    if not invoke_us:
        for name in ("net.invoke_us.p50", "net.invoke_us.p99"):
            rep.layer_metric(name, 0.0, "us", "(not measured: %s)" % missing)
        return
    rep.layer_metric("net.invoke_us.p50", benchmath.percentile(invoke_us, 50),
                     "us", "(median of n=%d, %s)" % (len(invoke_us), clock))
    p, v, k = benchmath.tail(invoke_us, 99.0)
    rep.layer_metric("net.invoke_us.p99", v, "us",
                     "(p%s of n=%d, %d beyond)" % (p, len(invoke_us), k))


def wire_layers(rep, wires, invokes_per_cs):
    frames = sum(w["frames"] for w in wires)
    invokes = sum(w["invokes"] for w in wires)
    if not frames:
        rep.problem("no frames sampled for the codec replay")
        return
    enc = statistics.median(w["encode_ns"] for w in wires if w["frames"])
    par = statistics.median(w["parse_ns"] for w in wires if w["frames"])
    allocs = sum(w["allocs"] * w["frames"] for w in wires) / frames
    nbytes = sum(w["bytes"] for w in wires)
    rep.layer_metric("wire.encode_ns_per_frame", enc, "ns",
                     "(median over %d replays, %d frames)" % (len(wires), frames))
    rep.layer_metric("wire.parse_ns_per_frame", par, "ns",
                     "(peel + parse, same frames)")
    rep.layer_metric("wire.allocs_per_frame", allocs, "count",
                     "(encode + parse, %d frames)" % frames)
    rep.layer_metric("wire.bytes_per_cs", nbytes / invokes * invokes_per_cs, "B",
                     "(%d B / %d request+response pairs x %.3f invokes/cs)"
                     % (nbytes, invokes, invokes_per_cs))
    if not all(w["round_trip_ok"] for w in wires):
        rep.problem("a replayed frame did not parse back to its source")


def xb4_check(rep, ws):
    """p50 WAN round trips per op over uncontended sections = §X-B4."""
    n = sum(w["uncontended_sections"] for w in ws)
    for op in OPS:
        rtts = [x for w in ws for x in w["rtts"][op]]
        if not rtts:
            rep.problem("rtts.%s: no uncontended samples" % op)
            continue
        p50 = benchmath.percentile(rtts, 50)
        rep.extra_line("rtts.%s" % op, p50, "count",
                       "(p50 over %d uncontended ops of %d sections; "
                       "SX-B4 predicts %d)" % (len(rtts), n, XB4_RTTS[op]))
        if p50 != XB4_RTTS[op]:
            rep.problem("rtts.%s p50 = %g, SX-B4 predicts %d"
                        % (op, p50, XB4_RTTS[op]))


# ---- loopback fleet ---------------------------------------------------------

def free_ports(n):
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 (1-based) of the full line.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def loopback_tx_bytes():
    """Bytes sent on the loopback interface so far (this network namespace:
    the fleet's client and store traffic, TCP/IP headers included)."""
    with open("/proc/net/dev") as f:
        for line in f:
            name, _, rest = line.partition(":")
            if name.strip() == "lo":
                return int(rest.split()[8])
    return 0


def proc_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Fleet:
    """Three musicd processes on loopback plus the generator process."""

    def __init__(self, seed, trace, solo_sections, conc_sections):
        self.seed = seed
        self.trace = trace
        self.solo_sections = solo_sections
        self.conc_sections = conc_sections
        self.musicd = []
        self.gen = None
        self.logdir = os.path.join(BUILD, "fleet")
        os.makedirs(self.logdir, exist_ok=True)

    def start(self):
        """Starts the fleet and the generator; returns seconds until all
        routes connected.  This process waits for them at real-time
        priority too, so its own wake-ups do not stretch the time."""
        set_policy(0, os.SCHED_FIFO, 1)
        try:
            return self._start()
        finally:
            set_policy(0, os.SCHED_OTHER, 0)

    def realtime(self):
        """True when every fleet process runs under SCHED_FIFO."""
        return all(os.sched_getscheduler(p.pid) == os.SCHED_FIFO
                   for p in self.musicd + [self.gen])

    def _start(self):
        if not shutil.which(LAUNCH[0]):
            raise RunFailed("%s (util-linux) not found" % LAUNCH[0])
        ports = free_ports(2 * FLEET_SITES)
        store, music = ports[:FLEET_SITES], ports[FLEET_SITES:]
        t0 = time.monotonic()
        logs = []
        for site in range(FLEET_SITES):
            path = os.path.join(self.logdir, "musicd%d.log" % site)
            logs.append(path)
            with open(path, "w") as lf:
                self.musicd.append(subprocess.Popen(
                    LAUNCH + [MUSICD, "--site", str(site),
                              "--store-ports", ",".join(map(str, store)),
                              "--music-ports", ",".join(map(str, music))],
                    stdin=subprocess.DEVNULL, stdout=lf, stderr=lf))
            place(self.musicd[-1].pid, site)
        deadline = t0 + 20
        for site, path in enumerate(logs):
            while True:
                with open(path) as f:
                    if "musicd[%d]: store node" % site in f.read():
                        break
                if self.musicd[site].poll() is not None:
                    raise RunFailed("musicd %d exited during start-up" % site)
                if time.monotonic() > deadline:
                    raise RunFailed("musicd %d did not start listening" % site)
                time.sleep(0.0005)
        gen_log = open(os.path.join(self.logdir, "gen.log"), "w")
        self.gen = subprocess.Popen(
            LAUNCH + [GEN, "fleet", "--ports", ",".join(map(str, music)),
                      "--seed", str(self.seed),
                      "--solo-sections", str(self.solo_sections),
                      "--conc-sections", str(self.conc_sections),
                      "--trace", "1" if self.trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=gen_log,
            text=True)
        gen_log.close()
        place(self.gen.pid, 3)
        line = self._readline(deadline)
        if not line.startswith("READY"):
            raise RunFailed("generator did not connect all routes")
        return time.monotonic() - t0

    def _readline(self, deadline):
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RunFailed("generator timed out")
            r, _, _ = select.select([self.gen.stdout], [], [], left)
            if r:
                return self.gen.stdout.readline()

    def measure(self):
        cpu0 = [proc_cpu_s(p.pid) for p in self.musicd]
        lo0 = loopback_tx_bytes()
        self.gen.stdin.write("GO\n")
        self.gen.stdin.flush()
        line = self._readline(time.monotonic() + 150)
        if not line.strip():
            raise RunFailed("generator exited without a result")
        res = json.loads(line)
        res["loopback_bytes"] = loopback_tx_bytes() - lo0
        exited = [i for i, p in enumerate(self.musicd) if p.poll() is not None]
        res["musicd_exited"] = exited
        if not exited:
            res["fleet_cpu_s"] = sum(proc_cpu_s(p.pid) for p in self.musicd) - sum(cpu0)
            res["fleet_hwm_kb"] = sum(proc_hwm_kb(p.pid) for p in self.musicd)
        self.gen.wait(timeout=30)
        return res

    def stop(self):
        procs = ([self.gen] if self.gen else []) + self.musicd
        for p in procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if self.gen and self.gen.stdin:
            self.gen.stdin.close()
        if self.gen and self.gen.stdout:
            self.gen.stdout.close()
        self.musicd = []
        self.gen = None


FLEET_SITES = 3
SETUPS = 21
# Sections per second on this repo's 4-core sizing host, one client alone
# and the concurrent clients: the phases are fixed amounts of work sized to
# take about a fifth and four fifths of --seconds there.
SOLO_RATE = 190
CONC_RATE = 2000


def run_fleet_workload(seed, seconds, trace, rep):
    # The generator opens one connection per musicd and runs pinned to its
    # own core, so it cannot see the host's core count itself.
    if FLEET_SITES > nproc():
        raise RunFailed("refusing %d connections on %d cores"
                        % (FLEET_SITES, nproc()))
    solo = max(50, int(SOLO_RATE * 0.2 * seconds))
    conc = max(1000, int(CONC_RATE * 0.8 * seconds))
    setups = []
    res = None
    realtime = False
    for i in range(SETUPS):
        fleet = Fleet(seed, trace, solo, conc)
        try:
            setups.append(fleet.start())
            if i == SETUPS - 1:
                realtime = fleet.realtime()
                res = fleet.measure()
        finally:
            fleet.stop()
    if not realtime:
        rep.notes.append("the fleet ran at normal priority (SCHED_FIFO "
                         "refused): other work on the machine can set its "
                         "tail")
    phases = res["phases"]
    solos = [p for p in phases if p["name"] == "solo"]
    subs = [p for p in phases if p["name"] == "concurrent"]
    print("loopback-fleet: 3 musicd on loopback, no injected delay; 1 "
          "generator thread, 3 routes; %s priority; %d solo sections, then "
          "%d clients for %d sections; host steal %d ticks"
          % ("real-time" if realtime else "normal",
             sum(p["attempted"] for p in solos), subs[0]["clients"], conc,
             sum(p["steal_ticks"] for p in phases)))
    for e in res["errors"]:
        rep.problem(e)
    if res["musicd_exited"]:
        rep.problem("musicd %s exited during measurement" % res["musicd_exited"])
    if res["reconnects"]:
        rep.problem("%d reconnects during measurement" % res["reconnects"])
    if res["violations"]:
        rep.problem("ECF oracle: %s" % res["violation_report"].strip().splitlines()[0])
    rep.attempted = sum(p["attempted"] for p in phases)
    rep.failed = sum(p["failed"] for p in phases)
    if not trace:
        # A shared host only ever adds delay, and /proc/stat counts the CPU
        # time its other tenants took from this machine in each sub-phase.
        # Rates and medians come from the half of the sub-phases with the
        # least of that steal, the tail from the quietest quarter: it moves
        # with smaller bursts (see README.md).
        print("end-to-end (wall clock; sub-phases with the least host "
              "steal):")
        half = benchmath.quietest(subs, 0.5)
        rates = [p["cs_per_s"] for p in half]
        rep.e2e_metric("cs_per_s", statistics.median(rates), "1/s",
                       "(median of the %d quietest of %d equal sub-phases, "
                       "%.0f..%.0f, steal <= %d ticks each; %d clients, %d "
                       "sections)"
                       % (len(half), len(subs), min(rates), max(rates),
                          max(p["steal_ticks"] for p in half),
                          subs[0]["clients"],
                          sum(p["completed_in_window"] for p in half)))
        lat = [x for p in half for x in p["lat_us"]]
        rep.e2e_metric("cs_p50_ms", ms(benchmath.percentile(lat, 50)), "ms",
                       "(median of n=%d, same sub-phases)" % len(lat))
        quarter = benchmath.quietest(subs, 0.25)
        lat = [x for p in quarter for x in p["lat_us"]]
        pct, val, k = benchmath.tail(lat, 99.0)
        rep.e2e_metric("cs_p99_ms", ms(val), "ms",
                       "(p%s of n=%d, %d beyond; the %d quietest sub-phases, "
                       "steal <= %d ticks each)"
                       % (pct, len(lat), k, len(quarter),
                          max(p["steal_ticks"] for p in quarter)))
        half = benchmath.quietest(solos, 0.5)
        solo = [x for p in half for x in p["lat_us"]]
        rep.e2e_metric("solo_cs_p50_ms", ms(benchmath.percentile(solo, 50)),
                       "ms", "(median of n=%d, one client alone, the %d "
                       "quietest of %d sub-phases)"
                       % (len(solo), len(half), len(solos)))
        rep.e2e_metric("setup_s", statistics.median(setups), "s",
                       "(median of %d fleet start-ups: %s)"
                       % (len(setups), " ".join("%.3f" % s for s in setups)))
        if "fleet_hwm_kb" in res:
            rep.e2e_metric("peak_rss_mb", res["fleet_hwm_kb"] / 1024.0, "MB",
                           "(sum of the 3 musicd peaks)")
    else:
        layer_fleet(rep, res)
    rep.extra_line("cs_fail_ratio",
                   str(benchmath.Ratio(rep.failed, rep.attempted, "failed",
                                       "attempted sections")))
    rep.extra_line("ecf_violations", res["violations"], "count",
                   "(client-side oracle)")
    return res


def layer_fleet(rep, res):
    print("per-layer (traced sub-phases of the concurrent phase; generator "
          "side):")
    subs = [p for p in res["phases"] if p["name"] == "concurrent"]
    untraced = [p for p in res["phases"] if p["name"] == "concurrent_untraced"]
    traced_ok = sum(p["attempted"] - p["failed"] for p in subs)
    ok_total = res["ok_total"]
    base = "%d ok sections" % ok_total
    rep.layer_metric("sim.events_per_cs", res["events"] / ok_total, "count",
                     "(%d generator events / %s)" % (res["events"], base))
    rep.layer_metric("sim.host_ns_per_event",
                     res["loadgen_cpu_s"] * 1e9 / res["events"], "ns",
                     "(%.3f generator CPU s / %d events)"
                     % (res["loadgen_cpu_s"], res["events"]))
    rep.layer_metric("sim.allocs_per_cs", res["allocs"] / ok_total, "count",
                     "(%d generator allocs / %s)" % (res["allocs"], base))
    rep.layer_metric("sim.alloc_bytes_per_cs", res["alloc_bytes"] / ok_total,
                     "B", "(%d B / %s)" % (res["alloc_bytes"], base))
    rep.layer_metric("pdes.events_per_window", 0.0, "count",
                     "(real clock: no PDES windows)")
    rep.layer_metric("pdes.windows_per_sim_s", 0.0, "1/s",
                     "(real clock: no PDES windows)")
    rep.layer_metric("core.acquire_polls_per_cs",
                     res["acquire_invokes"] / traced_ok, "count",
                     "(%d acquireLock requests / %d traced ok sections)"
                     % (res["acquire_invokes"], traced_ok))
    rep.layer_metric("core.acquire_grant_ratio",
                     res["acquire_ok"] / res["acquire_invokes"], "ratio",
                     "(%d granted / %d requests)"
                     % (res["acquire_ok"], res["acquire_invokes"]))
    rep.layer_metric("client.retries_per_cs", res["client_retries"] / ok_total,
                     "count", "(%d retries / %s)" % (res["client_retries"], base))
    fault_layers(rep, None, ok_total, base)
    op_layers(rep, res["op_us"])
    for name in ("lockstore.paxos_msgs_per_cs", "datastore.quorum_msgs_per_cs",
                 "net.wan_msgs_per_cs"):
        rep.layer_metric(name, 0.0, "count",
                         "(not observable: musicd exports no message counters)")
    rep.layer_metric("net.bytes_per_cs", res["loopback_bytes"] / ok_total, "B",
                     "(%d B sent on loopback by the fleet and generator / %s)"
                     % (res["loopback_bytes"], base))
    invokes_per_cs = res["invokes"] / traced_ok
    rep.layer_metric("net.invokes_per_cs", invokes_per_cs, "count",
                     "(%d requests through the decorator / %d traced ok "
                     "sections)" % (res["invokes"], traced_ok))
    invoke_layers(rep, res["invoke_us"], "wall clock, TcpTransport", "")
    rep.layer_metric("net.reconnects", res["reconnects"], "count",
                     "(during the measurement; any is a failed check)")
    wire_layers(rep, [res["wire"]], invokes_per_cs)
    kcs = ok_total / 1000.0
    if "fleet_cpu_s" in res:
        rep.layer_metric("fleet.cpu_ms_per_kcs", res["fleet_cpu_s"] * 1000 / kcs,
                         "ms", "(%.2f musicd utime+stime s / %s)"
                         % (res["fleet_cpu_s"], base))
    rep.layer_metric("loadgen.cpu_ms_per_kcs", res["loadgen_cpu_s"] * 1000 / kcs,
                     "ms", "(%.2f generator CPU s / %s)"
                     % (res["loadgen_cpu_s"], base))
    u_rate = statistics.median(p["cs_per_s"] for p in untraced)
    t_rate = statistics.median(p["cs_per_s"] for p in subs)
    rep.layer_metric("trace.overhead_ratio", u_rate / t_rate, "ratio",
                     "(%.1f untraced / %.1f traced sections per s, medians "
                     "of %d alternating sub-phases each)"
                     % (u_rate, t_rate, len(subs)))


# ---- main -------------------------------------------------------------------

def selftest():
    r = subprocess.run([sys.executable, "-m", "unittest", "-q",
                        "test_benchmath"], cwd=HERE)
    build()
    g = subprocess.run([GEN, "selftest"])
    return 0 if r.returncode == 0 and g.returncode == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so every fleet process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if a.selftest:
        return selftest()
    if not a.workload:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
        rep = Report()
        trace = a.trace == 1
        if a.workload == "loopback-fleet":
            info = run_fleet_workload(a.seed, a.seconds, trace, rep)
        else:
            info = run_sim_workload(a.workload, a.seed, a.seconds, trace, rep)
    except (RunFailed, subprocess.TimeoutExpired) as e:
        log("perfbench: run failed: %s" % e)
        return 1
    prov = provenance(a.seed, info)
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    for n in rep.notes:
        print("note: %s" % n)
    if rep.attempted < 1:
        log("perfbench: no sections attempted")
        return 1
    result = {"correct": not rep.problems, "attempted": rep.attempted,
              "failed": rep.failed,
              "metrics": rep.layer if trace else rep.e2e}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    path = os.path.join(BUILD, "results", "%s-seed%d-trace%d.json"
                        % (a.workload, a.seed, a.trace))
    with open(path, "w") as f:
        json.dump({"workload": a.workload, "seconds": a.seconds,
                   "provenance": prov, "problems": rep.problems,
                   "notes": rep.notes, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
