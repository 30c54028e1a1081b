#!/usr/bin/env python3
"""perfbench — wire-level, layer-by-layer benchmark of fsdata.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of an fsdata source tree. It builds bin/fsdata.exe
and the benchmark's own perfbench/pbref.exe with dune, generates the
workload's inputs from --seed, drives the real binary (CLI processes,
and `fsdata serve` over loopback sockets), checks every answer against
pbref's in-process reference, and prints one line per metric followed
by a JSON result as the last line of standard output. The full result
(sample counts, the percentile behind each `_tail_`, span tables) is
also written under .perfbench_work/results/.

Workloads (see BENCHMARK.json for why each exists):
  cli_infer   fresh `fsdata infer --format json --max-errors 0` processes
  bulk_infer  closed loop of multi-MiB POST /infer on one connection
  stream_mix  open loop of pushes, reads, stream queries and migrations

With --trace 0 all three lanes run, interleaved over five rounds: the
workload's own lane for --seconds in all, the other two as a short
fixed probe, so every end-to-end metric is measured on every workload.
Each round also runs two closed-loop bursts of stream migrations, whose
pooled median is migrate_p50_ms.
With --trace 1 only the workload's own lane runs, half untraced and
half traced; the per-layer metrics come from /metrics deltas,
/proc/<pid>/{io,stat,status}, the CLI's --metrics/--trace output, and
pbref's traced in-process replay of the recorded inputs.

    python3 perfbench/run.py --self-check

runs a short traced pass of each workload twice, and fails unless every
answer is right and the deterministic counters repeat exactly.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from urllib.parse import quote

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import gen  # noqa: E402
import httpc  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
FSDATA = os.path.join(ROOT, "_build", "default", "bin", "fsdata.exe")
PBREF = os.path.join(ROOT, "_build", "default", "perfbench", "pbref.exe")
CONNS = min(2, os.cpu_count() or 1)

CLI_RECORDS = 35_000
BULK_BYTES = 3 << 20
BULK_POOL = 20_000
JSON_STREAMS, CSV_STREAMS = 12, 4
SEED_ROUNDS = 63
RATE = 60.0
MIX = [("push", 55), ("shape", 8), ("schema", 5), ("history", 6), ("diff", 6), ("query", 15), ("migrate", 5)]
SETUP_SPAWNS = 7
ROUNDS = 5
CALM_ROUNDS = 3
PROBE = {"cli": 8, "bulk": 5, "stream_s": 10.0, "migrate": 1000}
MIGRATE_DEPTH = 48  # conditionals in a probe migration's program (about 2 KiB)
LIMIT_S = 170  # a run must end within 180 s

END_TO_END = [
    ("setup_s", "s"), ("cli_wall_s", "s"), ("cli_peak_rss_mib", "MiB"),
    ("infer_p50_ms", "ms"), ("infer_tail_ms", "ms"), ("bulk_mib_s", "MiB/s"),
    ("read_p50_ms", "ms"), ("migrate_p50_ms", "ms"), ("server_peak_rss_mib", "MiB"),
]
# Measured and reported beside the metrics, but not part of the result:
# on a 2-vCPU VM whose neighbours take CPU in bursts, these moved by
# 30-150% (the tails) and 35-45% (the push and query medians, IQR over
# median of ten seeds) between runs. failed_share is the result's
# failed of attempted.
# mix_migrate_p50_ms is the median of the few migrations inside the open
# loop, whose latency mostly follows the stream query they queue behind.
UNGATED = [("push_p50_ms", "ms"), ("query_p50_ms", "ms"), ("mix_migrate_p50_ms", "ms"),
           ("push_tail_ms", "ms"), ("read_tail_ms", "ms"), ("query_tail_ms", "ms")]

# Each per-layer metric, with the end-to-end metric and workload it
# should move, lives in layers.json.
with open(os.path.join(HERE, "layers.json")) as f:
    PER_LAYER = [(m["name"], m["unit"]) for m in json.load(f)]

# Counters that must repeat exactly across two runs of the same seed.
# Not csh.merges_per_doc on bulk_infer: the server folds a streamed body
# per socket read (Infer.of_json_feed_tolerant merges at fragment
# boundaries), so its merge count follows how TCP split the bytes.
DETERMINISTIC = ["csh.merges_per_doc", "wal.fsyncs_per_push", "par_infer.chunks_per_run", "query.docs_per_req"]
NOT_DETERMINISTIC = {("bulk_infer", "csh.merges_per_doc")}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(os.path.join(ROOT, "bin")):
        die("no fsdata source tree at %s (dune-project and bin/ are missing)" % ROOT)
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    # no shared dune cache: the build reads and writes only the checkout
    r = subprocess.run(["dune", "build", "--root", ROOT, "./bin/fsdata.exe", "./perfbench/pbref.exe"],
                       cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
        die("build failed")


def pbref(*args):
    r = subprocess.run([PBREF] + [str(a) for a in args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        die("pbref %s failed: %s" % (args[0], r.stderr.decode(errors="replace")[-2000:]))
    return json.loads(r.stdout)


# --- statistics ---

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least ten samples beyond it, and
    its label; the maximum when there are ten samples or fewer."""
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return 0.0, "none"
    if n <= 10:
        return s[-1], "max of %d" % n
    return s[n - 11], "p%.1f of %d" % (100.0 * (n - 10) / n, n)


def ratio(a, b):
    return a / b if b else 0.0


def interleave(total):
    """`total` request kinds in MIX proportions, each kind spread evenly
    over the sequence (largest accumulated credit goes next)."""
    weight = sum(w for _, w in MIX)
    credit = {k: 0.0 for k, _ in MIX}
    out = []
    for _ in range(total):
        for k, w in MIX:
            credit[k] += w / weight
        k = max(credit, key=credit.get)
        credit[k] -= 1
        out.append(k)
    return out


# --- processes ---

class Proc:
    """/proc/<pid> counters of a live process."""

    def __init__(self, pid):
        self.pid = pid

    def snapshot(self):
        snap = {}
        with open("/proc/%d/io" % self.pid) as f:
            for line in f:
                k, _, v = line.partition(":")
                snap[k.strip()] = int(v)
        with open("/proc/%d/stat" % self.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        tick = os.sysconf("SC_CLK_TCK")
        snap["cpu_s"] = (int(fields[11]) + int(fields[12])) / tick
        with open("/proc/%d/status" % self.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    snap["hwm_kib"] = int(line.split()[1])
        return snap


def steal_s():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def spawn_wait(argv, out_path):
    """Run a CLI process to completion: (wall s, exit code, rusage). A
    run cut short by the time limit kills and reaps the child."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage


class Server:
    """A live `fsdata serve` on an ephemeral loopback port."""

    def __init__(self, state_dir, fsync="always"):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [FSDATA, "serve", "--port", "0", "--state-dir", state_dir, "--fsync", fsync],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if "serving on" not in line:
            self.kill()
            die("server did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])
        conn = httpc.Conn(self.port)
        while conn.request("GET", "/healthz")[0] != 200:
            time.sleep(0.001)
        conn.close()
        self.setup_s = time.perf_counter() - t0
        self.stats = Proc(self.proc.pid)

    def metrics(self):
        conn = httpc.Conn(self.port)
        status, _, body, _ = conn.request("GET", "/metrics")
        conn.close()
        if status != 200:
            die("GET /metrics answered %d" % status)
        return json.loads(body)

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def delta(after, before, key):
    return after.get(key, 0) - before.get(key, 0)


# --- the run ---

class Run:
    """One invocation: inputs, lanes, checks and metrics of one workload."""

    def __init__(self, workload, seed, seconds, trace, fixed=False):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.fixed = fixed  # self-check: fixed request counts instead of time windows
        self.work = os.path.join(WORK, "run-%s-%d-%d" % (workload, seed, trace))
        self.attempted = 0
        self.failures = []
        self.metrics = {}
        self.detail = {}
        self.servers = []
        self.bulk_index = 0

    def rng(self, label):
        return random.Random("%s:%d" % (label, self.seed))

    def fail(self, what):
        self.failures.append(what)

    def path(self, *parts):
        p = os.path.join(self.work, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def write(self, data, *parts):
        p = self.path(*parts)
        with open(p, "wb") as f:
            f.write(data)
        return p

    # -- the cli lane --

    def cli_runs(self, corpus, expected, seconds=None, count=None, extra=()):
        """Fresh `fsdata infer` processes, back to back, for `seconds` or
        `count` runs; each output is checked against the reference."""
        runs = []
        t_end = time.perf_counter() + (seconds or 0)
        while len(runs) < (1 if count is None else count) or (count is None and time.perf_counter() < t_end):
            out = self.path("cli", "out.txt")
            argv = [FSDATA, "infer", "--format", "json", "--max-errors", "0"] + list(extra) + [corpus]
            wall, code, usage = spawn_wait(argv, out)
            with open(out) as f:
                text = f.read()
            self.attempted += 1
            if code != 0:
                self.fail("cli exited %d" % code)
            elif text.strip() != expected:
                self.fail("cli shape differs from Infer.of_json_tolerant")
            runs.append({"wall_s": wall, "rss_kib": usage.ru_maxrss, "out_bytes": len(text)})
        return runs

    def warm(self):
        """One unmeasured CLI run right before each measured phase. It
        busies both cores; on a VM whose vCPUs sat idle, the server's
        latencies otherwise depend on how long they idled (stream queries
        run up to twice as slow), not on the program."""
        spawn_wait([FSDATA, "infer", "--format", "json", "--max-errors", "0", self.corpus], os.devnull)

    # -- servers --

    def seed_state(self):
        """Unmeasured: push the streams' first rounds into a state
        directory with --fsync never, so the measured server starts by
        recovering a snapshot and a WAL. Returns the streams, the seed
        ops and the seeded directory."""
        rng = self.rng("streams")
        streams = [gen.Stream(rng, i, "json" if i < JSON_STREAMS else "csv")
                   for i in range(JSON_STREAMS + CSV_STREAMS)]
        seeded = os.path.join(self.work, "seeded")
        os.makedirs(seeded)
        srv = self.start_server(seeded, fsync="never")
        conn = httpc.Conn(srv.port)
        ops = []
        try:
            for _ in range(SEED_ROUNDS):
                for st in streams:
                    name = "b%05d-%s.%s" % (len(ops), st.name, st.fmt)
                    body = st.batch(rng)
                    self.write(body, "streams", name)
                    status, _, rbody, _ = conn.request("POST", "/streams/%s/push?format=%s" % (st.name, st.fmt), body)
                    ops.append({"op": ["push", st.name, st.fmt, name], "status": status, "body": rbody})
        finally:
            conn.close()
            self.stop_server(srv)
        return streams, ops, seeded

    def start_server(self, state_dir, fsync="always"):
        srv = Server(state_dir, fsync)
        self.servers.append(srv)
        return srv

    def stop_server(self, srv, kill=False):
        self.servers.remove(srv)
        srv.kill() if kill else srv.stop()

    def measured_server(self, seeded):
        """Spawn the server on fresh copies of the seeded state several
        times; setup_s is the median spawn-to-ready time. The last one
        stays up."""
        times = []
        srv = None
        self.warm()
        for i in range(SETUP_SPAWNS):
            if srv is not None:
                self.stop_server(srv, kill=True)
            state = os.path.join(self.work, "state%d" % i)
            shutil.copytree(seeded, state)
            srv = self.start_server(state)
            times.append(srv.setup_s)
        self.metrics["setup_s"] = median(times)
        self.detail["setup_s_each"] = times
        self.detail["registry_recovered_records"] = srv.metrics().get("registry.wal.recovered_records", 0)
        return srv

    # -- the bulk lane --

    def bulk_loop(self, srv, rng, pool, seconds=None, count=None):
        """Closed loop of POST /infer on one keep-alive connection, each
        with a fresh multi-MiB body, for `seconds` or `count` requests."""
        conn = httpc.Conn(srv.port)
        out = []
        t_end = time.perf_counter() + (seconds or 0)
        try:
            while len(out) < (1 if count is None else count) or (count is None and time.perf_counter() < t_end):
                index = self.bulk_index
                self.bulk_index += 1
                body = gen.bulk_body(rng, pool, index, BULK_BYTES)
                path = self.write(body, "bulk", "body%03d.json" % index)
                status, _, rbody, timing = conn.request("POST", "/infer", body)
                out.append({"status": status, "body": rbody, "path": path, "bytes": len(body), **timing})
        finally:
            conn.close()
        return out

    def check_bulk(self, results):
        refs = pbref("infer", *[r["path"] for r in results])
        for r, ref in zip(results, refs):
            self.attempted += 1
            if r["status"] != 200:
                self.fail("/infer answered %d" % r["status"])
                continue
            got = json.loads(r["body"])
            if got.get("shape") != ref["shape"] or got.get("total") != ref["total"]:
                self.fail("/infer shape differs from Infer.of_json_tolerant")

    # -- the stream lane --

    def stream_schedule(self, streams, seconds, first):
        """The open-loop schedule: one request every 1/RATE s. The
        requests of one stream reach the server in schedule order (see
        httpc.open_loop), so the reference model replays them exactly."""
        rng = self.rng("mix%d" % first)
        total = int(RATE * seconds)
        json_streams = [s for s in streams if s.fmt == "json"]
        # Stratified draws: every seed gets the same request mix, spread
        # evenly over the window, and the same sequence of query-body
        # sizes and query variants, so seeds differ in content and not
        # in load.
        nb = 2 * len(json_streams)
        sizes = [200 + 1800 * k // (nb - 1) for k in range(nb)]
        bodies = []
        for k, s in enumerate(json_streams * 2):
            name = "q%d-%s-%d.json" % (first, s.name, k // len(json_streams))
            # small and large bodies alternate along the cycle
            size = sizes[k // 2] if k % 2 == 0 else sizes[nb - 1 - k // 2]
            self.write(gen.query_body(rng, size), "streams", name)
            bodies.append((s, name))
        deck = interleave(total)
        turn = rng.randrange(total)
        deck = deck[turn:] + deck[:turn]
        # variant k and k + 8 use different engines, so over the 48-query
        # cycle of (body, variant) pairs every body meets both engines
        variants = [(q, c, lim) for c in "01" for q in gen.QUERIES for lim in (100, 1000)]
        queries = 0
        sched = []
        for i, kind in enumerate(deck):
            if kind == "query":
                # every body in turn: each seed queries the same sizes
                st, name = bodies[queries % len(bodies)]
            else:
                st = rng.choice(json_streams if kind == "migrate" else streams)
            base = "/streams/" + st.name
            body = b""
            if kind == "push":
                name = "b%05d-%s.%s" % (first + i, st.name, st.fmt)
                body = st.batch(rng)
                self.write(body, "streams", name)
                method, target, op = "POST", base + "/push?format=" + st.fmt, ["push", st.name, st.fmt, name]
            elif kind in ("shape", "schema"):
                fmt = "paper" if kind == "shape" else "schema"
                method, target, op = "GET", base + "/shape?format=" + fmt, ["shape", st.name, fmt]
            elif kind == "history":
                method, target, op = "GET", base + "/history", ["history", st.name]
            elif kind == "diff":
                frm = rng.choice(["-", "1"])
                target = base + "/diff" + ("" if frm == "-" else "?from=1")
                method, op = "GET", ["diff", st.name, frm, "-"]
            elif kind == "query":
                q, compiled, limit = variants[queries % len(variants)]
                queries += 1
                with open(self.path("streams", name), "rb") as f:
                    body = f.read()
                target = "%s/query?q=%s&compiled=%s&limit=%d" % (base, quote(q, safe=""), compiled, limit)
                method, op = "POST", ["query", st.name, compiled, str(limit), name, q]
            else:
                prog = rng.choice(gen.PROGRAMS)
                body = prog.encode()
                method, target, op = "POST", base + "/migrate?since=1", ["migrate", st.name, "1", prog]
            group = "read" if kind in ("shape", "schema", "history", "diff") else kind
            sched.append({"due": i / RATE, "stream": st.name, "method": method,
                          "target": target, "body": body, "op": op, "kind": group})
        return sched

    def stream_loop(self, srv, sched):
        """Two clients share the connections: pushes and reads take
        either, queries and migrations (the analytics client) only the
        last. Only the pushes of one stream are kept in order; the other
        requests may overlap them (check_streams allows for it)."""
        t0 = sched[0]["due"]
        items = [(s["due"] - t0, s["stream"] if s["kind"] == "push" else None,
                  CONNS - 1 if s["kind"] in ("query", "migrate") else None,
                  s["method"], s["target"], s["body"], i) for i, s in enumerate(sched)]
        results = httpc.open_loop(srv.port, CONNS, items, time.perf_counter() + 0.02)
        results.sort(key=lambda r: r["tag"])
        for s, r in zip(sched, results):
            r["kind"], r["op"], r["stream"] = s["kind"], s["op"], s["stream"]
        return results

    def migrate_loop(self, srv, streams, first, count):
        """Closed loop of `count` POST /migrate on one keep-alive
        connection, run while no push is in flight. Request i of the run
        (numbered from `first`) names a JSON stream and a base program,
        which it wraps in 1 + i // (streams x programs) pairs of
        parentheses, so it shares a response-cache key with no other
        migration of the run and runs Service.migrate."""
        json_streams = [s for s in streams if s.fmt == "json"]
        conn = httpc.Conn(srv.port)
        out = []
        try:
            for i in range(first, first + count):
                st = json_streams[i % len(json_streams)]
                pairs, k = divmod(i // len(json_streams), len(gen.PROGRAMS))
                prog = "(" * (pairs + 1) + gen.nested_program(gen.PROGRAMS[k], MIGRATE_DEPTH) + ")" * (pairs + 1)
                sent = time.perf_counter()
                status, headers, body, timing = conn.request("POST", "/streams/%s/migrate?since=1" % st.name, prog.encode())
                out.append({"kind": "migrate", "op": ["migrate", st.name, "1", prog], "stream": st.name,
                            "status": status, "body": body, "sent_at": sent, "done_at": time.perf_counter(),
                            "cache": headers.get("x-fsdata-cache"), **timing})
        finally:
            conn.close()
        return out

    def check_streams(self, srv, streams, seed_ops, results):
        """Compare every stream answer with the model's, after reading
        back each stream's final shape: it must be the csh fold of its
        acknowledged batches (Lemma 1). A request that overlapped pushes
        of its stream may show any state between the pushes acknowledged
        before it was sent and those sent before its answer arrived."""
        conn = httpc.Conn(srv.port)
        finals = []
        try:
            for st in streams:
                status, _, body, _ = conn.request("GET", "/streams/%s/shape" % st.name)
                finals.append({"op": ["shape", st.name, "paper"], "status": status, "body": body})
        finally:
            conn.close()
        base, pushes = {}, {}
        for o in seed_ops:
            base[o["op"][1]] = base.get(o["op"][1], 0) + 1
        for r in results:
            if r["kind"] == "push":
                pushes.setdefault(r["stream"], []).append(r)
        lines = []
        for o in seed_ops + results + finals:
            op = o["op"]
            if op[0] != "push":
                s = op[1]
                mine = pushes.get(s, [])
                if "sent_at" in o:
                    lo = sum(1 for p in mine if p["done_at"] < o["sent_at"])
                    hi = sum(1 for p in mine if p["sent_at"] < o["done_at"])
                else:
                    lo = hi = len(mine)
                op = [op[0], s, str(base.get(s, 0) + lo), str(base.get(s, 0) + hi)] + op[2:]
            lines.append("\t".join(op) + "\n")
        log = self.write("".join(lines).encode(), "streams", "ops.tsv")
        migrations = {}
        for o, exp in zip(seed_ops + results + finals, pbref("streams", log)):
            self.attempted += 1
            kind = o["op"][0]
            if not 200 <= o["status"] < 300:
                self.fail("%s answered %d" % (kind, o["status"]))
                continue
            if kind == "shape" and o["op"][2] == "schema":
                ok = any(o["body"].decode() == c["schema"] for c in exp)
            else:
                got = json.loads(o["body"])
                ok = any(all(got.get(k) == v for k, v in c.items()) for c in (exp if kind != "push" else [exp]))
                if kind == "migrate" and ok:
                    # repeated migrations are byte-identical
                    key = tuple(o["op"][1:]) + (got.get("to_version"),)
                    ok = migrations.setdefault(key, o["body"]) == o["body"]
            if not ok:
                self.fail("%s on %s differs from the reference" % (kind, o["op"][1]))
        return log

    # -- the plain run: end-to-end metrics --

    def make_corpus(self):
        self.corpus = self.write(gen.cli_corpus(self.rng("cli"), CLI_RECORDS), "cli", "corpus.json")
        return self.corpus, pbref("infer", self.corpus)[0]["shape"]

    def run_plain(self):
        """Every lane, in ROUNDS rounds: the workload's own lane gets
        --seconds in all, the other two their fixed probe, and each
        round runs a slice of each, so a disturbance of the machine that
        lasts a few seconds lands in a few slices, not in a whole lane."""
        corpus, expected = self.make_corpus()
        streams, seed_ops, seeded = self.seed_state()
        srv = self.measured_server(seeded)
        rng = self.rng("bulk")
        pool = gen.record_pool(rng, BULK_POOL)
        main = self.workload == "stream_mix"
        sched = self.stream_schedule(streams, self.seconds if main else PROBE["stream_s"], len(seed_ops))
        cli, bulk, stream, migrate, steal = [], [], [], [], []
        # two bursts of migrations a round: the server's collector makes
        # some bursts slow, and more of them average that out
        burst = PROBE["migrate"] // (2 * ROUNDS)
        for r in range(ROUNDS):
            # bulk first, then the CLI, which leaves both cores busy
            # right before the stream slice (see warm)
            bulk += self.bulk_loop(srv, rng, pool, **self.share("bulk_infer", PROBE["bulk"], r))
            migrate += self.migrate_loop(srv, streams, len(migrate), burst)
            cli += self.cli_runs(corpus, expected, **self.share("cli_infer", PROBE["cli"], r))
            s0, t0 = steal_s(), time.perf_counter()
            part = self.stream_loop(srv, sched[len(sched) * r // ROUNDS:len(sched) * (r + 1) // ROUNDS])
            steal.append((steal_s() - s0) / (time.perf_counter() - t0))
            for x in part:
                x["round"] = r
            stream += part
            migrate += self.migrate_loop(srv, streams, len(migrate), burst)
        self.metrics["server_peak_rss_mib"] = srv.stats.snapshot()["hwm_kib"] / 1024
        self.check_streams(srv, streams, seed_ops, stream + migrate)
        self.stop_server(srv)
        self.check_bulk(bulk)
        self.metrics["cli_wall_s"] = median([r["wall_s"] for r in cli])
        self.metrics["cli_peak_rss_mib"] = median([r["rss_kib"] for r in cli]) / 1024
        lat = [r["latency_s"] * 1000 for r in bulk]
        self.metrics["infer_p50_ms"] = median(lat)
        self.metrics["infer_tail_ms"], self.detail["infer_tail_ms"] = tail(lat)
        self.metrics["bulk_mib_s"] = sum(r["bytes"] for r in bulk) / (1 << 20) / (sum(lat) / 1000)
        # Stream latencies double while the hypervisor runs another
        # guest on one of the two vCPUs (the server's collections stop
        # every domain), so they come from the CALM_ROUNDS slices with
        # the least stolen CPU time; every answer is still checked.
        calm = sorted(range(ROUNDS), key=lambda r: steal[r])[:CALM_ROUNDS]
        self.detail["stream_steal_per_s"] = steal
        self.detail["stream_rounds_used"] = sorted(calm)
        by_kind = {}
        for r in stream:
            if r["round"] in calm:
                by_kind.setdefault(r["kind"], []).append(r["latency_s"] * 1000)
        for kind in ("push", "read", "query"):
            self.metrics[kind + "_p50_ms"] = median(by_kind.get(kind, []))
            self.metrics[kind + "_tail_ms"], self.detail[kind + "_tail_ms"] = tail(by_kind.get(kind, []))
        self.metrics["mix_migrate_p50_ms"] = median(by_kind.get("migrate", []))
        # hundreds of migrations one after another: their median holds
        # still where the open loop's few dozen did not
        self.metrics["migrate_p50_ms"] = median([r["latency_s"] * 1000 for r in migrate])
        self.detail["migrate_cache_hits"] = sum(1 for r in migrate if r["cache"] == "hit")
        self.detail["samples"] = {"cli": len(cli), "bulk": len(bulk), "migrate_probe": len(migrate),
                                  **{k: len(v) for k, v in sorted(by_kind.items())}}

    def share(self, workload, probe, r):
        """Round r's share of a lane: the workload's own lane runs for
        --seconds in all, a probe for `probe` runs in all."""
        if self.workload == workload and not self.fixed:
            return {"seconds": self.seconds / ROUNDS}
        return {"count": probe // ROUNDS + (1 if r < probe % ROUNDS else 0)}

    # -- the traced run: per-layer metrics --

    def run_traced(self):
        if self.workload == "cli_infer":
            return self.trace_cli()
        self.make_corpus()
        streams, seed_ops, seeded = self.seed_state()
        srv = self.measured_server(seeded)
        self.metrics["registry.recovered_records"] = self.detail["registry_recovered_records"]
        self.warm()
        if self.workload == "bulk_infer":
            self.trace_bulk(srv)
        else:
            self.trace_stream(srv, streams, seed_ops, seeded)

    @staticmethod
    def halves(srv, run_half):
        """An untraced half window, then a traced one between counter
        snapshots: (plain, traced, counters before, counters after)."""
        plain = run_half(0)
        before = (srv.metrics(), srv.stats.snapshot())
        traced = run_half(1)
        after = (srv.metrics(), srv.stats.snapshot())
        return plain, traced, before, after

    def trace_cli(self):
        corpus, expected = self.make_corpus()
        self.warm()
        half = {"count": 2} if self.fixed else {"seconds": self.seconds / 2}
        plain = self.cli_runs(corpus, expected, **half)
        mpath, tpath = self.path("cli", "metrics.json"), self.path("cli", "trace.json")
        traced = self.cli_runs(corpus, expected, extra=["--metrics", mpath, "--trace", tpath], **half)
        with open(mpath) as f:
            m = json.load(f)
        with open(tpath) as f:
            self.detail["cli_trace_events"] = len(json.load(f)["traceEvents"])
        # the default --jobs against the single-threaded baseline, in
        # alternating order
        default, seq = [], []
        for i in range(6):
            pair = [((), default), (("--jobs", "1"), seq)]
            for extra, into in pair if i % 2 == 0 else pair[::-1]:
                into.append(self.cli_runs(corpus, expected, count=1, extra=extra)[0]["wall_s"])
        replay = pbref("replay-infer", corpus, 3)
        self.metrics.update({
            "json.ns_per_byte": ratio(m.get("parse.json.ns", 0), m.get("parse.json.bytes", 0)),
            "csh.merges_per_doc": ratio(m.get("csh.merges", 0), m.get("ingest.samples_total", 0)),
            "par_infer.chunks_per_run": m.get("par.chunks", 0),
            "par_infer.domains_spawned": m.get("par.domains_spawned", 0),
            "par_infer.default_vs_seq": ratio(median(default), median(seq)),
            "render.bytes_per_req": median([r["out_bytes"] for r in traced]),
            "trace.overhead_ms": 1000 * (median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])),
        })
        self.replay_infer(replay)
        self.detail.update({"cli_default_s": default, "cli_seq_s": seq})

    def replay_infer(self, replay):
        self.metrics.update({
            "json.replay_mib_s": replay["replay_mib_s"],
            "infer.fold_self_ms": replay["fold_self_ms"],
            "infer.minor_words_per_byte": replay["minor_words_per_byte"],
            "infer.major_words_per_byte": replay["major_words_per_byte"],
            "render.us_per_req": replay["render_us"],
        })
        self.detail["replay_infer_spans"] = replay["spans"]

    def server_layers(self, traced, before, after):
        """Layer metrics read from outside the server over `traced`."""
        (m0, p0), (m1, p1) = before, after
        n = len(traced)
        d = lambda k: delta(m1, m0, k)  # noqa: E731
        # the delta also holds the first /metrics scrape, whose handler
        # time is negligible: divide by the lane's own request count
        handler_ms = ratio(d("serve.latency_ms.sum"), n)
        chits, hits = d("compile.cache.hits"), d("serve.cache.hits")
        self.metrics.update({
            "http.read_syscalls_per_req": ratio(delta(p1, p0, "syscr"), n),
            "http.write_syscalls_per_req": ratio(delta(p1, p0, "syscw"), n),
            "server.queue_wait_ms": 1000 * statistics.mean(r["latency_s"] for r in traced) - handler_ms,
            "server.cpu_ms_per_req": 1000 * ratio(delta(p1, p0, "cpu_s"), n),
            "json.ns_per_byte": ratio(d("parse.json.ns"), d("parse.json.bytes")),
            "csh.merges_per_doc": ratio(d("csh.merges"), d("ingest.samples_total")),
            "shape_compile.cache_hit_ratio": ratio(chits, chits + d("compile.cache.misses")),
            "cache.hit_ratio": ratio(hits, hits + d("serve.cache.misses")),
            "cache.evictions_per_req": ratio(d("serve.cache.evictions"), n),
            "render.bytes_per_req": median([r["received"] for r in traced]),
        })
        return d

    def replay_frames(self, wires):
        data = b"".join(b"%d\n" % len(w) + w for w in wires)
        frame = pbref("replay-frames", self.write(data, "frames.bin"))
        self.metrics["http.frame_us_per_req"] = frame["frame_us_per_req"]
        self.detail["replay_frame_spans"] = frame["spans"]

    def trace_bulk(self, srv):
        rng = self.rng("bulk")
        pool = gen.record_pool(rng, BULK_POOL)
        half = {"count": 2} if self.fixed else {"seconds": self.seconds / 2}
        plain, traced, before, after = self.halves(srv, lambda _: self.bulk_loop(srv, rng, pool, **half))
        self.stop_server(srv)
        self.check_bulk(plain + traced)
        d = self.server_layers(traced, before, after)
        n = len(traced)
        self.metrics.update({
            "http.expect_wait_ms": median([r["expect_wait_s"] * 1000 for r in traced]),
            "par_infer.chunks_per_run": ratio(d("par.chunks"), n),
            "par_infer.domains_spawned": ratio(d("par.domains_spawned"), n),
            "trace.overhead_ms": 1000 * (median([r["latency_s"] for r in traced]) - median([r["latency_s"] for r in plain])),
        })
        self.replay_infer(pbref("replay-infer", traced[0]["path"], 3))
        wires = []
        for r in traced[:2]:
            with open(r["path"], "rb") as f:
                body = f.read()
            wires.append(httpc.encode_request("POST", "/infer", body, expect=True) + body)
        self.replay_frames(wires)
        self.detail["bulk_requests"] = [len(plain), n]

    def trace_stream(self, srv, streams, seed_ops, seeded):
        sched = self.stream_schedule(streams, self.seconds, len(seed_ops))
        mid = len(sched) // 2
        plain, traced, before, after = self.halves(srv, lambda i: self.stream_loop(srv, (sched[:mid], sched[mid:])[i]))
        # a burst of the migrations migrate_p50_ms times, so that the
        # replay's evolve.migrate_us covers their programs too
        probe = self.migrate_loop(srv, streams, 0, PROBE["migrate"] // (2 * ROUNDS))
        log = self.check_streams(srv, streams, seed_ops, plain + traced + probe)
        self.stop_server(srv)
        d = self.server_layers(traced, before, after)
        pushes = d("registry.pushes")
        direct, phits = d("compile.docs_direct"), d("serve.plan_cache.hits")
        queries = [json.loads(r["body"]) for r in traced if r["kind"] == "query"]
        push_p50 = lambda rs: median([r["latency_s"] * 1000 for r in rs if r["kind"] == "push"])  # noqa: E731
        self.metrics.update({
            "shape_compile.direct_share": ratio(direct, direct + d("compile.docs_fallback")),
            "wal.fsyncs_per_push": ratio(d("registry.wal.fsyncs"), pushes),
            "wal.bytes_per_push": ratio(d("registry.wal.bytes"), pushes),
            "cache.invalidations_per_push": ratio(d("serve.cache.invalidations"), pushes),
            "cache.plan_hit_ratio": ratio(phits, phits + d("serve.plan_cache.misses")),
            "query.docs_per_req": ratio(sum(q.get("scanned", 0) for q in queries), len(queries)),
            "loadgen.late_ms": 1000 * statistics.mean(r["late_s"] for r in traced),
            "trace.overhead_ms": push_p50(traced) - push_p50(plain),
        })
        self.replay_frames([httpc.encode_request(s["method"], s["target"], s["body"]) + s["body"]
                            for s in sched[mid:mid + 300]])
        recover = []
        for i in range(3):
            recover.append(os.path.join(self.work, "recover%d" % i))
            shutil.copytree(seeded, recover[-1])
        replay = pbref("replay-streams", log, os.path.join(self.work, "replay-state"), *recover)
        self.metrics.update({
            "registry.push_us": replay["registry_push_us"],
            "registry.recover_ms": replay["registry_recover_ms"],
            "query.check_us": replay["query_check_us"],
            "query.eval_ms_per_mib": replay["query_eval_ms_per_mib"],
            "query.eval_fast_ms_per_mib": replay["query_eval_fast_ms_per_mib"],
            "evolve.migrate_us": replay["evolve_migrate_us"],
            "render.us_per_req": replay["render_us_per_req"],
        })
        self.detail["replay_stream_spans"] = replay["spans"]

    # -- running and reporting --

    def execute(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        steal = steal_s()
        try:
            self.run_traced() if self.trace else self.run_plain()
            # CPU time the hypervisor gave to others during the run
            self.detail["steal_s"] = steal_s() - steal
        finally:
            for srv in list(self.servers):
                self.stop_server(srv, kill=True)
            shutil.rmtree(self.work, ignore_errors=True)
        names = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": float(self.metrics.get(name, 0.0)), "unit": unit} for name, unit in names},
        }


def report(run, result):
    for name, m in result["metrics"].items():
        print("%-32s %14.6f %s" % (name, m["value"], m["unit"]))
    if not run.trace:
        for name, unit in UNGATED:
            print("%-32s %14.6f %s (not gated)" % (name, run.metrics.get(name, 0.0), unit))
    for name, _ in [("infer_tail_ms", "ms")] + UNGATED:
        if name in run.detail and name.endswith("_tail_ms"):
            print("%-32s %s" % (name + " is the", run.detail[name]))
    print("%-32s %d of %d" % ("failed_share", result["failed"], result["attempted"]))
    for f in run.failures[:10]:
        print("failure: " + f)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", "%s-seed%d-trace%d.json" % (run.workload, run.seed, run.trace))
    with open(path, "w") as f:
        json.dump({"workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": run.trace,
                   "result": result, "ungated": {n: run.metrics.get(n) for n, _ in UNGATED},
                   "detail": run.detail, "failures": run.failures}, f, indent=1)
    print(json.dumps(result))


def self_check():
    """A short traced pass of each workload, twice: every answer must be
    correct and the deterministic counters must repeat exactly."""
    ok = True
    for workload in WORKLOADS:
        seen = []
        for _ in range(2):
            run = Run(workload, 1, 2.0, 1, fixed=True)
            result = run.execute()
            if not result["correct"]:
                ok = False
                print("self-check: %s answered wrongly: %s" % (workload, run.failures[:3]))
            seen.append({k: result["metrics"][k]["value"] for k in DETERMINISTIC
                         if (workload, k) not in NOT_DETERMINISTIC})
        if seen[0] != seen[1]:
            ok = False
            print("self-check: %s counters differ between runs: %s" % (workload, seen))
        print("self-check %s: %s" % (workload, seen[0]))
    print("self-check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


WORKLOADS = ["cli_infer", "bulk_infer", "stream_mix"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds, args.trace)

    def too_long(*_):
        raise TimeoutError("the run took longer than %d s" % LIMIT_S)

    signal.signal(signal.SIGALRM, too_long)
    signal.alarm(LIMIT_S)
    report(run, run.execute())
    return 0


if __name__ == "__main__":
    sys.exit(main())
