#!/usr/bin/env python3
"""perfbench: the verifier's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the verifier and the
in-process tracer with dune, sets the workload up from --seed, measures
for --seconds, checks every answer, and prints as its last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured on the shipped binary driven from outside; with --trace 1 they
are the per-layer ones, from the tracer.  The line before it, prefixed
"perfbench-detail: ", carries sample counts, tail percentiles, the
failure ratio and the machine record.  See perfbench/README.md.

Everything it writes goes under .perfbench-work/ in the checkout and is
removed on exit; every process it starts is stopped and waited for.
"""

import argparse
import gc
import json
import math
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

BIN = "_build/default/bin/hyperenclave_verify.exe"
TRACER = "_build/default/perfbench/tracer/tracer.exe"
WORK_ROOT = ".perfbench-work"
SPEC = "BENCHMARK.json"

# The one-shot request kinds of the CLI workloads.
KINDS = (
    ("tiny-quick", ["--quick"]),
    ("tiny-full", []),
    ("x86-quick", ["--quick", "--geometry", "x86_64"]),
)
MC_DEPTH = 5  # mc-deep: about 0.8 s a run on 2 vCPUs, most of its busy time model checking
# The share of a measured run spent timing set-up steps again (see
# closed_loop).  The host's speed moves in spells of several seconds, and
# set-up taken only at the start of a run samples a single spell.
REDO_SHARE = 0.3

# the traced daemon hops: a light hot stream (requests/s) and a few
# fresh seeds through the in-process session
LIGHT_RPS = 120.0
HOP_FRESH = 4

now = time.perf_counter


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    pass


# ----------------------------------------------------------------------
# Requests

class Req:
    """One verification request: CLI flags for a one-shot run, the same
    request as a daemon payload, and what its answer must be."""

    def __init__(self, name, flags, seed, *, lints=None, overrides=True, mc_depth=None,
                 buggy_tlb=False):
        self.name, self.seed = name, seed
        self.flags = list(flags)
        self.lints, self.overrides = lints, overrides
        self.mc_depth, self.buggy_tlb = mc_depth, buggy_tlb
        self.ref = None  # reference stdout, captured in set-up

    def cli(self):
        f = self.flags + ["--seed", str(self.seed)]
        if self.lints:
            f += ["--lints", self.lints]
        if not self.overrides:
            f += ["--no-overrides"]
        if self.mc_depth:
            f += ["--model-check", str(self.mc_depth)]
        if self.buggy_tlb:
            f += ["--buggy-tlb"]
        return f

    def payload(self):
        return {"op": "verify",
                "geometry": "x86_64" if "x86_64" in self.flags else "tiny",
                "seed": self.seed, "quick": "--quick" in self.flags,
                "lints": self.lints or "all", "overrides": self.overrides,
                "model_check": None}

    def answer(self):
        return {"buggy_tlb": self.buggy_tlb, "model_check": self.mc_depth is not None}

    def check(self, stdout, status):
        return bl.output_error(self.ref, stdout, status, **self.answer())

    def __repr__(self):
        return "%s/seed=%d" % (self.name, self.seed)


# ----------------------------------------------------------------------
# Processes

CLK_TCK = os.sysconf("SC_CLK_TCK")
NPROC = len(os.sched_getaffinity(0))


def steal_s():
    """CPU time the hypervisor has taken from this machine's vCPUs so
    far, summed over them; 0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            return bl.stat_steal_s(f.readline(), CLK_TCK)
    except (OSError, ValueError):
        return 0.0


class Proc:
    def __init__(self, wall, cpu, rss_mb, steal, status, stdout, stderr):
        self.wall, self.cpu, self.rss_mb, self.steal = wall, cpu, rss_mb, steal
        self.status, self.stdout, self.stderr = status, stdout, stderr

    @property
    def own(self):
        """Wall time less the steal while it ran (bl.own_time).  A halted
        vCPU accrues no steal, and the benchmark itself waits while one
        operation is in flight, so the steal is what the hypervisor took
        from this process."""
        return bl.own_time(self.wall, self.steal, self.cpu, NPROC)


_counter = [0]
_counter_lock = threading.Lock()


def fresh_path(work, tag):
    with _counter_lock:
        _counter[0] += 1
        return os.path.join(work, "%s-%d" % (tag, _counter[0]))


def run_proc(argv, work):
    """Run to completion with stdout/stderr in files; wall time from
    spawn to reap, user+sys CPU and peak RSS from wait4."""
    out_path, err_path = fresh_path(work, "out"), fresh_path(work, "err")
    with open(out_path, "wb") as o, open(err_path, "wb") as e:
        s0, t0 = steal_s(), now()
        p = subprocess.Popen(argv, stdout=o, stderr=e, stdin=subprocess.DEVNULL)
        _, status, ru = os.wait4(p.pid, 0)
        t1, s1 = now(), steal_s()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as o:
        stdout = o.read().decode("utf-8", "replace")
    with open(err_path, "rb") as e:
        stderr = e.read().decode("utf-8", "replace")
    os.unlink(out_path)
    os.unlink(err_path)
    return Proc(t1 - t0, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, s1 - s0,
                p.returncode, stdout, stderr)


def rmtree(path):
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Results

class Results:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.setup_errors = []
        self.errors = []
        self.lock = threading.Lock()

    def record(self, err, what):
        with self.lock:
            self.attempted += 1
            if err:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append("%s: %s" % (what, err))

    def setup_error(self, err, what):
        if err:
            self.setup_errors.append("%s: %s" % (what, err))


def capture_refs(reqs, work, res, parallel=1):
    """The known answers: a cold, single-job, cache-off run of each
    request, `parallel` at a time.  Returns the per-request capture
    times (each process's own time, steal excluded)."""
    times = [None] * len(reqs)
    lock = threading.Lock()
    todo = list(enumerate(reqs))

    def worker():
        while True:
            with lock:
                if not todo:
                    return
                k, r = todo.pop(0)
            p = run_proc([BIN] + r.cli() + ["--jobs", "1"], work)
            times[k] = p.own
            r.ref = p.stdout
            with lock:
                res.setup_error(bl.verdict_error(p.stdout, p.status, **r.answer()),
                                "reference %r" % r)

    threads = [threading.Thread(target=worker) for _ in range(parallel)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return times


def ref_steps(reqs, times):
    """Known-answer capture times as set-up steps, one step per request
    kind: {step: [seconds]}."""
    steps = {}
    for r, t in zip(reqs, times):
        steps.setdefault("reference " + r.name, []).append(t)
    return steps


def recapture(req, work, res):
    """One known-answer capture again, checked against the first:
    {step: seconds}."""
    p = run_proc([BIN] + req.cli() + ["--jobs", "1"], work)
    res.setup_error(req.check(p.stdout, p.status), "reference again %r" % req)
    return {"reference " + req.name: p.own}


def interleave(pools):
    """The pools' members taken in turn: [a0, b0, a1, b1, a2, ...]."""
    return [p[i] for i in range(max(map(len, pools))) for p in pools if i < len(p)]


# ----------------------------------------------------------------------
# Closed-loop CLI workloads

def closed_loop(op, seconds, redo, steps):
    """One operation in flight for the whole run: op(i) -> (kind, seed,
    Proc) for the i-th operation of the schedule.  With one in flight no
    operation waits for another for a vCPU, and the steal while it ran
    is what the hypervisor took from it.  Between operations, REDO_SHARE
    of the time goes to the set-up units `redo` in turn, each returning
    {step: seconds} to add to `steps`: set-up time sampled through the
    whole run, not only at its start."""
    ops = []
    start = now()
    end = start + seconds
    spent, k = 0.0, 0
    while now() < end:
        if spent < REDO_SHARE * (now() - start):
            t0 = now()
            for step, t in redo[k % len(redo)]().items():
                steps[step].append(t)
            spent += now() - t0
            k += 1
        else:
            ops.append(op(len(ops)))
    return ops


def closed_loop_metrics(wl, steps, ops, detail):
    """The end-to-end figures of a closed loop.  setup_s is the sum over
    set-up steps of each step's median time.  Times are each process's
    own time (wall less steal, see Proc.own); the plain wall times go in
    the detail line.  CPU per operation is taken per kind and weighted
    by the schedule's own mix, so it does not move with the mix of kinds
    a run happened to complete."""
    own = [p.own for _, _, p in ops]
    detail["own"] = bl.summary(own, wl.tail_cap)
    detail["wall"] = bl.summary([p.wall for _, _, p in ops], wl.tail_cap)
    detail["steal_share"] = (sum(p.steal for _, _, p in ops)
                             / max(1e-9, sum(p.wall for _, _, p in ops)))
    detail["setup_steps"] = steps
    kinds = {}
    for k, _, p in ops:
        kinds.setdefault(k, []).append(p)
    detail["kinds"] = {k: {"n": len(ps), "own_p50": bl.median([p.own for p in ps]),
                           "cpu_p50": bl.median([p.cpu for p in ps])}
                       for k, ps in kinds.items()}
    return {
        "setup_s": sum(bl.median(v) for v in steps.values()),
        "wall_p50_s": bl.median(own),
        "cpu_per_op_s": bl.mix_of_medians([(k, s, p.cpu) for k, s, p in ops], wl.weights()),
        "peak_rss_mb": bl.median([p.rss_mb for _, _, p in ops]),
    }


def cli_requests(rng, nseeds):
    seeds = [rng.randrange(1, 1 << 20) for _ in range(nseeds)]
    return [Req(name, flags, s) for s in seeds for name, flags in KINDS]


class CliCold:
    """Every operation a fresh process with an empty --cache directory."""

    # 43-62 operations a run on 2 vCPUs, and p75 needs 40; a run under
    # heavy steal completes fewer and its (uncompared) tail is the median
    tail_cap = 75.0

    # seeds per kind: how much a run's figures follow its inputs falls
    # with the number of seeds it averages over.  An x86_64 --quick run
    # costs anything from 1x to 1.7x depending on its seed; the tiny
    # kinds hardly move with theirs.
    seeds = {"tiny-quick": 3, "tiny-full": 3, "x86-quick": 10}

    def __init__(self, ctx):
        self.ctx = ctx
        self.pools = [[Req(name, flags, ctx.rng.randrange(1, 1 << 20))
                       for _ in range(self.seeds[name])] for name, flags in KINDS]
        self.pool = [r for p in self.pools for r in p]

    def setup(self):
        times = capture_refs(self.pool, self.ctx.work, self.ctx.res)
        return ref_steps(self.pool, times)

    def redo(self):
        """The set-up units to time again during the run, kinds in turn."""
        ctx = self.ctx
        return [lambda r=r: recapture(r, ctx.work, ctx.res) for r in interleave(self.pools)]

    def schedule(self, i):
        """The kinds in turn, each cycling through its own seeds."""
        p = self.pools[i % len(self.pools)]
        return p[(i // len(self.pools)) % len(p)], None

    def kind(self, req, _extra):
        return req.name

    def cycle(self):
        """Length of the schedule's repeating pattern."""
        return len(self.pools) * math.lcm(*(len(p) for p in self.pools))

    def weights(self):
        """Each kind's share of the schedule."""
        w = {}
        for i in range(self.cycle()):
            k = self.kind(*self.schedule(i))
            w[k] = w.get(k, 0) + 1
        return w

    def prepare_cache(self, _req):
        return fresh_path(self.ctx.work, "cache")

    def check_extra(self, _extra, _proc):
        return None


class CliWarm(CliCold):
    """Operations against a fresh copy of a cache filled in set-up:
    23 in 24 repeat a filled request, one in 24 uses a seed the fill
    never saw.  (Few enough that the tail a run reaches stays inside
    the repeats instead of on the edge between the two populations.)"""

    tail_cap = 75.0  # 137-189 operations a run
    fills = 2  # at the start; the run fills again (redo)
    # two filled seeds, so set-up time (which a fill's seed moves by up to
    # a third) does not follow one seed
    seeds = 2

    def __init__(self, ctx):
        self.ctx = ctx
        self.filled = cli_requests(ctx.rng, self.seeds)
        self.unseen = cli_requests(ctx.rng, 1)
        self.master = None

    def setup(self):
        ctx = self.ctx
        refs = self.filled + self.unseen
        steps = ref_steps(refs, capture_refs(refs, ctx.work, ctx.res))
        for _ in range(self.fills):
            cache, times = self.fill()
            for step, t in times.items():
                steps.setdefault(step, []).append(t)
            if self.master is None:
                self.master = cache
            else:
                rmtree(cache)
        return steps

    def fill(self):
        """One cache fill: (cache directory, {step: seconds}).  It runs
        single-job: the same cache entries as at any job count, without
        the run-to-run swing of contended domains."""
        ctx = self.ctx
        cache = fresh_path(ctx.work, "fill")
        times = {}
        for r in self.filled:
            p = run_proc([BIN] + r.cli() + ["--jobs", "1", "--cache", cache], ctx.work)
            ctx.res.setup_error(r.check(p.stdout, p.status), "fill %r" % r)
            # a step per request, not per kind: the second seed's fill
            # finds the first seed's seed-independent entries cached and
            # takes about half as long
            times["fill %r" % r] = p.own
        return cache, times

    def redo(self):
        ctx = self.ctx

        def fill_again():
            cache, times = self.fill()
            rmtree(cache)
            return times

        return [fill_again] + [lambda r=r: recapture(r, ctx.work, ctx.res)
                               for r in interleave([self.filled, self.unseen])]

    def schedule(self, i):
        if i % 24 == 23:
            return self.unseen[(i // 24) % len(self.unseen)], False
        return self.filled[(i - i // 24) % len(self.filled)], True

    def kind(self, req, repeat):
        return req.name if repeat else req.name + "/unseen"

    def cycle(self):
        return 24 * len(self.filled)

    def prepare_cache(self, _req):
        dst = fresh_path(self.ctx.work, "cache")
        shutil.copytree(self.master, dst)
        return dst

    def check_extra(self, repeat, proc):
        if not repeat:
            return None
        counts = bl.engine_counts(proc.stderr)
        if counts is None:
            return "no engine line on stderr"
        n, hits = counts
        return None if n == hits else "repeat executed %d of %d obligations" % (n - hits, n)


class McDeep(CliCold):
    """One-shot --quick --model-check runs, alternating the correct
    monitor and the planted stale-TLB bug."""

    # model checking, most of the run, does not depend on the seed; five
    # seeds give set-up time five captures of each monitor
    seeds = 5
    # 25-31 operations a run: p75 would need 40 in every run, so the
    # tail is the median
    tail_cap = 50.0

    def __init__(self, ctx):
        self.ctx = ctx
        seeds = [ctx.rng.randrange(1, 1 << 20) for _ in range(self.seeds)]
        self.pools = [[Req(name, ["--quick"], s, mc_depth=MC_DEPTH, buggy_tlb=buggy)
                       for s in seeds] for name, buggy in (("mc", False), ("mc-buggy", True))]
        self.pool = [r for p in self.pools for r in p]

    def prepare_cache(self, _req):
        return None


def cli_op(wl, i):
    ctx = wl.ctx
    req, extra = wl.schedule(i)
    cache = wl.prepare_cache(req)
    argv = [BIN] + req.cli() + (["--cache", cache] if cache else [])
    p = run_proc(argv, ctx.work)
    err = req.check(p.stdout, p.status) or wl.check_extra(extra, p)
    ctx.res.record(err, repr(req))
    if cache:
        rmtree(cache)
    return wl.kind(req, extra), req.seed, p


def measure_cli(wl):
    ctx = wl.ctx
    steps = wl.setup()
    ops = closed_loop(lambda i: cli_op(wl, i), ctx.seconds, wl.redo(), steps)
    return closed_loop_metrics(wl, steps, ops, ctx.detail)


# ----------------------------------------------------------------------
# The daemon and its open-loop client

def proc_children(pid):
    out = []
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as f:
            out = [int(x) for x in f.read().split()]
    except OSError:
        pass
    return out


class Daemon:
    def __init__(self, work, tag):
        self.sock = os.path.join(work, tag + ".sock")
        self.cache = os.path.join(work, tag + "-cache")
        self.err = open(os.path.join(work, tag + ".err"), "wb")
        # its own session, so a stray fleet worker can be stopped by group
        self.p = subprocess.Popen([BIN, "--serve", self.sock, "--cache", self.cache],
                                  stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=self.err, start_new_session=True)
        self.pids = [self.p.pid]

    def wait_ready(self, timeout=60.0):
        end = now() + timeout
        while now() < end:
            if self.p.poll() is not None:
                raise Fatal("daemon exited with %r" % self.p.returncode)
            if os.path.exists(self.sock):
                try:
                    with Client(self.sock, 1) as c:
                        c.ping()
                    self.pids = [self.p.pid] + proc_children(self.p.pid)
                    return
                except OSError:
                    pass
            time.sleep(0.002)
        raise Fatal("daemon did not answer a ping")

    def stop(self):
        pids = self.pids + proc_children(self.p.pid)
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
            try:
                self.p.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.p.pid, signal.SIGKILL)
        except OSError:
            pass
        self.p.wait()
        end = now() + 10
        while now() < end and any(os.path.exists("/proc/%d" % p) and proc_state(p) != "Z"
                                  for p in pids[1:]):
            time.sleep(0.01)
        self.err.close()


def proc_state(pid):
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return "X"


class Client:
    """Up to nconn connections to a daemon; one process, one thread.
    Requests are pipelined; a response is matched to the oldest
    in-flight request on its connection whose known answer it equals,
    so one that matches none is a failure."""

    def __init__(self, sock_path, nconn):
        self.conns = []
        for _ in range(nconn):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(sock_path)
            self.conns.append({"sock": s, "buf": b"", "inflight": []})
        self.idents = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for c in self.conns:
            c["sock"].close()

    def ping(self):
        c = self.conns[0]
        t0 = now()
        c["sock"].sendall(bl.frame({"op": "ping"}))
        while True:
            frames, c["buf"] = bl.unframe(c["buf"])
            if frames:
                if json.loads(frames[0]).get("ok") is not True:
                    raise OSError("ping refused")
                return now() - t0
            chunk = c["sock"].recv(65536)
            if not chunk:
                raise OSError("daemon closed the connection")
            c["buf"] += chunk

    def identity(self, payload):
        ident = self.idents.get(payload)
        if ident is None:
            ident = bl.response_identity(payload)
            if len(self.idents) < 4096:
                self.idents[payload] = ident
        return ident

    def stream(self, sched, drain_s=30.0):
        """Send sched = [(offset_s, Req)] open-loop; returns the log.
        Sockets are nonblocking and every pass
        reads what has arrived, so a daemon writing back while we send
        can never stall either side."""
        olog = bl.OpenLoopLog()
        sel = selectors.DefaultSelector()
        for c in self.conns:
            c["sock"].setblocking(False)
            c["out"] = bytearray()
            sel.register(c["sock"], selectors.EVENT_READ, c)
        frames = {}
        gc.disable()  # no collector pause inside the generator's loop
        t0 = now() + 0.002
        i, rr, pending, deadline = 0, 0, 0, None
        try:
            while i < len(sched) or pending:
                t = now()
                if i < len(sched):
                    timeout = max(0.0, t0 + sched[i][0] - t)
                else:
                    if deadline is None:
                        deadline = t + drain_s
                    timeout = deadline - t
                    if timeout <= 0:
                        break
                for key, events in sel.select(timeout):
                    c = key.data
                    if events & selectors.EVENT_WRITE:
                        self._flush(c, sel)
                    if events & selectors.EVENT_READ:
                        pending -= self._read(c, olog)
                t = now()
                while i < len(sched) and t0 + sched[i][0] <= t:
                    req = sched[i][1]
                    f = frames.get(id(req))
                    if f is None:
                        f = frames[id(req)] = bl.frame(req.payload())
                    c = self.conns[rr % len(self.conns)]
                    rr += 1
                    c["out"] += f
                    c["inflight"].append((req, t0 + sched[i][0], now()))
                    pending += 1
                    i += 1
                    t = now()
                for c in self.conns:
                    if c["out"]:
                        self._flush(c, sel)
        finally:
            gc.enable()
            sel.close()
            for c in self.conns:
                c["sock"].setblocking(True)
        end = now()
        for c in self.conns:  # never answered: failed, done at give-up time
            for _, due, sent in c["inflight"]:
                olog.add(due, sent, end, False)
            c["inflight"] = []
        return olog

    def _flush(self, c, sel):
        try:
            n = c["sock"].send(c["out"])
        except BlockingIOError:
            n = 0
        del c["out"][:n]
        sel.modify(c["sock"], selectors.EVENT_READ | (selectors.EVENT_WRITE if c["out"] else 0), c)

    def _read(self, c, olog):
        try:
            chunk = c["sock"].recv(1 << 20)
        except BlockingIOError:
            return 0
        if not chunk:
            raise Fatal("daemon closed a connection")
        c["buf"] += chunk
        frames, c["buf"] = bl.unframe(c["buf"])
        done = now()
        for payload in frames:
            ok, status, md5, overrides = self.identity(payload)
            match = None
            if ok:
                for k, (req, _, _) in enumerate(c["inflight"]):
                    if (status == 0 and md5 == req.ref_md5
                            and overrides == req.overrides):
                        match = k
                        break
            k = 0 if match is None else match
            if c["inflight"]:
                _, due, sent = c["inflight"].pop(k)
                olog.add(due, sent, done, match is not None)
        return len(frames)


class ServeHops:
    """The daemon's hops, traced beside cli-warm (the warm path the
    daemon keeps resident): ping round trips and a light open-loop
    stream of a hot request set against a live daemon, then the same
    requests, with a few fresh seeds, through an in-process
    Serve.Driver session."""

    def __init__(self, ctx):
        self.ctx = ctx
        seed = ctx.rng.randrange(1, 1 << 20)
        self.hot = [
            Req("tiny-quick", ["--quick"], seed),
            Req("tiny-full", [], seed),
            Req("lints-body", ["--quick"], seed, lints="body"),
            Req("lints-alias", ["--quick"], seed, lints="alias"),
            Req("x86-quick", ["--quick", "--geometry", "x86_64"], seed),
            Req("no-overrides", ["--quick"], seed, overrides=False),
        ]
        # seeds no request of the hot set uses: each is a plan build and
        # a full execution the first time the session sees it
        self.fresh = [Req("fresh", ["--quick"], ctx.rng.randrange(1 << 20, 1 << 21))
                      for _ in range(HOP_FRESH)]

    def refs(self):
        # untimed (no figure here is a set-up time), so in parallel
        reqs = self.hot + self.fresh
        capture_refs(reqs, self.ctx.work, self.ctx.res, self.ctx.nproc)
        for r in reqs:
            r.ref_md5 = bl.md5(r.ref)

    def start(self):
        """A daemon with its shipped defaults, answering pings, with the
        hot set sent three times."""
        d = Daemon(self.ctx.work, "daemon")
        try:
            d.wait_ready()
            with Client(d.sock, self.ctx.nproc) as c:
                olog = c.stream([(0.0, r) for _ in range(3) for r in self.hot])
            if olog.failed():
                self.ctx.res.setup_error("%d warm-up answers wrong" % olog.failed(), "daemon")
            return d
        except BaseException:
            d.stop()
            raise

    def schedule(self, rate, seconds):
        rng = self.ctx.rng
        offs = bl.arrivals(rate, seconds, rng) or [0.0]
        return [(t, self.hot[rng.randrange(len(self.hot))]) for t in offs]

    def measure(self, seconds):
        ctx = self.ctx
        self.refs()
        daemon = self.start()
        try:
            with Client(daemon.sock, 1) as c:
                pings = [c.ping() for _ in range(100)]
            with Client(daemon.sock, ctx.nproc) as c:
                light = c.stream(self.schedule(LIGHT_RPS, seconds))
            for ok in light.ok:
                ctx.res.record(None if ok else "wrong or missing answer", "serve")
        finally:
            daemon.stop()
        # the same stream through an in-process session: warm-up, then
        # the hot set repeated with the fresh seeds spread through it
        warm = [r for _ in range(3) for r in self.hot]
        steady = [r for _ in range(20) for r in self.hot]
        for k, r in enumerate(self.fresh):
            steady.insert((k + 1) * len(steady) // (len(self.fresh) + 1), r)
        reqfile = fresh_path(ctx.work, "requests")
        with open(reqfile, "w") as f:
            for r in warm + steady:
                f.write(json.dumps(r.payload()) + "\n")
        p = run_proc([TRACER, "serve", "--cache", fresh_path(ctx.work, "cache"),
                      "--requests", reqfile, "--warmup", str(len(warm))], ctx.work)
        if p.status != 0:
            raise Fatal("tracer serve failed: " + p.stderr[-500:])
        out = json.loads(p.stdout.strip().splitlines()[-1])
        rows = out["requests"]
        for r, row in zip(warm + steady, rows):
            ctx.res.record(None if row["stdout_md5"] == r.ref_md5 else "in-process answer differs",
                           repr(r))
        rows = rows[len(warm):]
        hot_rows = [row for r, row in zip(steady, rows) if r in self.hot]
        replay_lat = bl.median(light.service_times())
        return {
            "serve.decode_s": bl.median([x["decode_s"] for x in rows]),
            "serve.prepare_s": bl.median([x["prepare_s"] for x in rows]),
            "serve.handle_s": bl.median([x["handle_s"] for x in rows]),
            "serve.frame_s": bl.median([x["frame_s"] for x in rows]),
            "serve.ping_rtt_s": bl.median(pings),
            "serve.hop_overhead_s": replay_lat - bl.median([x["handle_s"] for x in hot_rows]),
            "serve.replay_ratio": out["replays"] / out["total"],
            "serve.plan_memo_hit_ratio": out["plan_memo_hit_ratio"],
            "serve.generator_late_p99_s": bl.percentile(light.lateness(), 99),
            "plan.memo_hit_ratio": out["plan_memo_hit_ratio"],
        }


# ----------------------------------------------------------------------
# Traced runs

def trace_ops(ctx, reqs, cache_for, budget=None):
    """For each request in turn until the time is up: the shipped CLI
    untraced, the tracer untraced, the tracer traced — each with its
    own cache in the state cache_for(req) gives.  Per-layer figures are
    medians over the traced runs."""
    traced, startup, overhead = {}, [], []
    end = now() + (budget if budget is not None else ctx.seconds)
    i = 0
    while i == 0 or now() < end:
        r = reqs[i % len(reqs)]
        i += 1
        caches = [cache_for(r) for _ in range(3)]

        def flags(k):
            return r.cli() + (["--cache", caches[k]] if caches[k] else [])

        cli = run_proc([BIN] + flags(0), ctx.work)
        ctx.res.record(r.check(cli.stdout, cli.status), repr(r))
        un = run_proc([TRACER, "op"] + flags(1) + ["--untraced"], ctx.work)
        out_file = fresh_path(ctx.work, "stdout")
        tr = run_proc([TRACER, "op"] + flags(2) + ["--stdout-out", out_file,
                                                   "--scratch", fresh_path(ctx.work, "scratch")],
                      ctx.work)
        if un.status != 0 or tr.status != 0:
            raise Fatal("tracer failed: " + (un.stderr + tr.stderr)[-500:])
        with open(out_file) as f:
            ctx.res.record(r.check(f.read(), 0), "traced " + repr(r))
        u = json.loads(un.stdout.strip().splitlines()[-1])
        t = json.loads(tr.stdout.strip().splitlines()[-1])
        # start-up and exit of one process: its wall from spawn to reap
        # minus its own in-process time for the CLI path
        startup.append(un.wall - u["cli_path_s"])
        overhead.append(t["cli_path_s"] / u["cli_path_s"])
        for k, v in t["metrics"].items():
            traced.setdefault(k, []).append(v)
        for c in caches:
            if c:
                rmtree(c)
    # medians, except the witness length: the largest over runs, which is
    # the buggy monitor's minimal witness (mc-deep alternates the correct
    # monitor, with no witness, and the buggy one)
    layer = {k: (max(v) if k == "mc.witness_events" else bl.median(v))
             for k, v in traced.items()}
    layer["proc.startup_s"] = bl.median(startup)
    layer["trace.overhead_ratio"] = bl.median(overhead)
    ctx.detail["traced_ops"] = len(startup)
    return layer


def trace_cli(wl, budget=None):
    wl.setup()
    return trace_ops(wl.ctx, [wl.schedule(i)[0] for i in range(wl.cycle())], wl.prepare_cache,
                     budget)


# ----------------------------------------------------------------------
# Machine record

def machine(ctx):
    rec = {"nproc": ctx.nproc}
    try:
        p = run_proc([TRACER, "probe"], ctx.work)
        rec.update(json.loads(p.stdout.strip().splitlines()[-1]))
    except (Fatal, ValueError, IndexError, OSError):
        pass
    rec["commit"] = commit()
    return rec


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # not a git checkout: a digest of the sources instead
    import hashlib
    h = hashlib.sha1()
    for top in ("bin", "lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha1:" + h.hexdigest()


# ----------------------------------------------------------------------
# Entry point

class Ctx:
    def __init__(self, args, work):
        self.seconds = float(args.seconds)
        self.rng = bl.seeded(args.workload, args.seed)
        self.work = work
        self.nproc = NPROC
        self.res = Results()
        self.detail = {}


WORKLOADS = {"cli-cold": CliCold, "cli-warm": CliWarm, "mc-deep": McDeep}

# Per-layer figures only cli-warm's trace (the daemon hops) produces;
# elsewhere they read 0.
SERVE_ONLY = ("serve.decode_s", "serve.prepare_s", "serve.handle_s", "serve.frame_s",
              "serve.ping_rtt_s", "serve.hop_overhead_s", "serve.replay_ratio",
              "serve.plan_memo_hit_ratio", "serve.generator_late_p99_s", "plan.memo_hit_ratio")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/hyperenclave_verify.exe",
                        "./perfbench/tracer/tracer.exe"], env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        raise Fatal("build failed:\n" + p.stdout.decode("utf-8", "replace")[-2000:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    # a terminated run still stops its daemons and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with open(SPEC) as f:
            spec = json.load(f)
        for need in ("dune-project", "bin/hyperenclave_verify.ml", "lib"):
            if not os.path.exists(need):
                raise Fatal("%s missing: run from the root of a verifier checkout" % need)
        build()
        work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        os.makedirs(work)
        try:
            ctx = Ctx(args, work)
            wl = WORKLOADS[args.workload](ctx)
            if args.trace:
                group = "per_layer"
                if isinstance(wl, CliWarm):
                    values = trace_cli(wl, ctx.seconds * 0.5)
                    values.update(ServeHops(ctx).measure(ctx.seconds * 0.25))
                else:
                    values = trace_cli(wl)
                    for k in SERVE_ONLY:
                        values[k] = 0.0
            else:
                group = "end_to_end"
                values = measure_cli(wl)
            ctx.detail["machine"] = machine(ctx)
        finally:
            rmtree(work)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass
    except Fatal as e:
        log(str(e))
        return 1
    except (OSError, ValueError) as e:
        log("error: %s" % e)
        return 1
    units = {m["name"]: m["unit"] for m in spec[group]}
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    missing = [k for k in units if k not in values]
    res = ctx.res
    errors = bl.check_metrics(metrics, units) + ["not produced: %s" % k for k in missing]
    correct = not (res.failed or res.setup_errors or errors)
    ctx.detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                      fail_ratio=res.failed / max(1, res.attempted),
                      errors=res.setup_errors + res.errors + errors)
    print("perfbench-detail: " + json.dumps(ctx.detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(1, res.attempted),
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
