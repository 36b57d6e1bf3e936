"""Pure helpers of the perfbench benchmark: statistics, names, answer
checks, the serve wire format and open-loop accounting.

Nothing here starts a process or touches the file system, so
selftest.py can cover all of it quickly.
"""

import hashlib
import json
import math
import random
import re
import struct

# ----------------------------------------------------------------------
# Statistics

# Percentiles a tail figure may use, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def rank(n, pct):
    """1-based nearest rank of percentile `pct` in a sample of n (the
    epsilon keeps 99.9% of 10000 at rank 9990, not 9991)."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(values)
    return s[rank(len(s), pct) - 1]


def beyond(n, pct):
    """Samples ranked above the nearest-rank percentile `pct` of n."""
    return n - rank(n, pct)


def tail(values, cap=TAIL_LADDER[-1]):
    """(percentile, value): the highest ladder percentile, up to `cap`,
    with at least TAIL_BEYOND samples beyond it.  A sample too small
    for any of them falls back to the median, and the percentile (50)
    says so.  A workload caps the percentile at the highest one its
    smallest run still reaches, so the percentile never changes from
    run to run."""
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    best = None
    for p in TAIL_LADDER:
        if p <= cap and beyond(n, p) >= TAIL_BEYOND:
            best = p
    if best is None or best == 50.0:
        return 50.0, median(values)
    return best, percentile(values, best)


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of an empty sample")
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def summary(values, cap=TAIL_LADDER[-1]):
    """The record kept beside every reported timing."""
    pct, t = tail(values, cap)
    return {"n": len(values), "p50": median(values), "tail_pct": pct,
            "tail": t, "min": min(values), "max": max(values)}


def mix_of_medians(samples, weights):
    """Sum over kinds of weight x the kind's cost, the weights
    renormalised over the kinds present: a figure for the schedule's
    mix that does not move with how many operations of each kind a run
    happened to complete.  A kind's cost is the mean over its seeds of
    the median of each seed's samples: the median keeps one slow
    outlier out, and the mean over seeds follows the seeds a run drew
    less than a median over them would.  samples: [(kind, seed, value)]."""
    by_kind = {}
    for k, seed, v in samples:
        by_kind.setdefault(k, {}).setdefault(seed, []).append(v)
    total = sum(weights[k] for k in by_kind)
    if not by_kind or total <= 0:
        raise ValueError("no samples of a weighted kind")
    return sum(weights[k] * sum(median(vs) for vs in seeds.values()) / len(seeds)
               for k, seeds in by_kind.items()) / total


def stat_steal_s(stat_line, clk_tck):
    """Seconds of steal in the aggregate `cpu` line of /proc/stat (its
    eighth counter, in clock ticks), or 0 if the line has none."""
    fields = stat_line.split()
    if len(fields) > 8 and fields[0] == "cpu":
        return int(fields[8]) / clk_tck
    return 0.0


def own_time(wall, steal, cpu, nproc):
    """A process's wall time less the steal while it ran: the time it
    had the machine's vCPUs.  While the hypervisor holds one vCPU, a
    domain on the other soon waits at the runtime's next stop-the-world
    barrier, so the process loses all of the steal, not a share of it.
    Never below its CPU time spread over every vCPU, the least wall
    time that CPU time can take."""
    return max(wall - steal, cpu / nproc)


# ----------------------------------------------------------------------
# Metric names (the benchmark contract's grammar)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def check_metrics(metrics, expected):
    """Errors in a result's metrics object against the expected
    (name -> unit) map: every name present, nothing extra, finite
    numbers, valid names and units."""
    errors = []
    for name, unit in expected.items():
        if not valid_name(name):
            errors.append("bad metric name %r" % name)
        if not valid_unit(unit):
            errors.append("bad unit %r for %s" % (unit, name))
        m = metrics.get(name)
        if m is None:
            errors.append("missing metric %s" % name)
            continue
        if set(m) != {"value", "unit"}:
            errors.append("metric %s has keys %s" % (name, sorted(m)))
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append("metric %s has non-numeric value %r" % (name, v))
        if m.get("unit") != unit:
            errors.append("metric %s has unit %r, want %r" % (name, m.get("unit"), unit))
    for name in metrics:
        if name not in expected:
            errors.append("unexpected metric %s" % name)
    return errors


# ----------------------------------------------------------------------
# Known answers

PASS_LINE = "VERIFICATION PASS: all checks succeeded"
MC_HEADER = "=== 11. model checking"
MC_CLEAN = "no violations"
MC_REDISCOVERED = "rediscovered the planted stale-TLB bug exhaustively (minimal witness: 4 events)"


def verdict_error(stdout, status, buggy_tlb=False, model_check=False):
    """Why `stdout`/`status` is not the known answer, or None.

    Every request the benchmark sends verifies the correct monitor or,
    with --buggy-tlb, the planted stale-TLB bug.  Both end in PASS with
    status 0 (the buggy run passes only by finding the bug); the model
    checking section must report no violations for the correct monitor,
    and for the buggy one only tlb-consistency violations, each with a
    4-event witness."""
    if status != 0:
        return "exit status %r" % status
    lines = stdout.rstrip("\n").split("\n")
    if not lines or lines[-1] != PASS_LINE:
        return "last line is not %r" % PASS_LINE
    if not model_check:
        return None
    if MC_HEADER not in stdout:
        return "no model checking section"
    section = stdout[stdout.index(MC_HEADER):]
    violations = [l.strip() for l in section.split("\n") if l.strip().startswith("VIOLATION")]
    witnesses = [l.strip() for l in section.split("\n") if l.strip().startswith("witness (")]
    if not buggy_tlb:
        if violations or MC_CLEAN not in section:
            return "the correct monitor reported violations"
        return None
    if not violations:
        return "the planted bug was not found"
    if any(not v.startswith("VIOLATION tlb-consistency ") for v in violations):
        return "a violation other than tlb-consistency"
    if len(witnesses) != len(violations) or any(
            not w.startswith("witness (4 events") for w in witnesses):
        return "a witness that is not 4 events"
    if MC_REDISCOVERED not in section:
        return "no minimal-witness line"
    return None


def output_error(ref_stdout, stdout, status, **answer):
    """Why an operation's output is wrong, or None: the known answer,
    then byte equality with the cold single-job cache-off reference."""
    err = verdict_error(stdout, status, **answer)
    if err:
        return err
    if stdout != ref_stdout:
        return "stdout differs from the reference run"
    return None


ENGINE_RE = re.compile(r"^engine: (\d+) obligations, jobs=\d+, cache (on|off), (\d+) hits, (\d+) misses",
                       re.M)


def engine_counts(stderr):
    """(obligations, hits) from the CLI's stderr engine line, or None."""
    m = ENGINE_RE.search(stderr)
    if not m:
        return None
    return int(m.group(1)), int(m.group(3))


# ----------------------------------------------------------------------
# Serve wire format: 4-byte big-endian length, then a JSON payload

def frame(obj):
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return struct.pack(">I", len(payload)) + payload


def unframe(buf):
    """Split complete frames off a byte buffer: (payloads, rest)."""
    out, off, n = [], 0, len(buf)
    while n - off >= 4:
        (size,) = struct.unpack_from(">I", buf, off)
        if n - off - 4 < size:
            break
        out.append(bytes(buf[off + 4:off + 4 + size]))
        off += 4 + size
    return out, buf[off:]


def md5(text):
    return hashlib.md5(text.encode() if isinstance(text, str) else text).hexdigest()


def response_identity(payload):
    """(ok, status, stdout md5, overrides enabled) of a daemon response;
    the fields a response is matched to its request by."""
    try:
        j = json.loads(payload)
    except ValueError:
        return (False, None, None, None)
    if j.get("ok") is not True:
        return (False, None, None, None)
    ov = (j.get("summary") or {}).get("overrides") or {}
    return (True, j.get("status"), md5(j.get("stdout", "")), ov.get("enabled"))


# ----------------------------------------------------------------------
# Open-loop arrivals and their accounting

def arrivals(rate, seconds, rng):
    """Poisson arrival offsets in [0, seconds) at `rate` per second."""
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        out.append(t)


class OpenLoopLog:
    """Per-request times of one open-loop stream, all on one clock:
    due (scheduled), sent, done (answered or given up on), ok.
    Generator lateness is `sent - due`, the part the generator itself
    added to a request's latency."""

    def __init__(self):
        self.due, self.sent, self.done, self.ok = [], [], [], []

    def add(self, due, sent, done, ok):
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(done)
        self.ok.append(ok)

    def service_times(self):
        return [d - s for s, d, ok in zip(self.sent, self.done, self.ok) if ok]

    def lateness(self):
        return [max(0.0, s - u) for u, s in zip(self.due, self.sent)]

    def failed(self):
        return sum(1 for ok in self.ok if not ok)


def seeded(tag, seed):
    return random.Random("%s:%d" % (tag, seed))
