#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark's own logic.

    python3 perfbench/selftest.py

Covers tail-percentile selection, the per-kind weighting, metric-name
validation (including BENCHMARK.json itself), the answer checker
rejecting doctored output or a wrong verdict, the serve framing, and
the open-loop lateness accounting.  Needs no build and starts no
process.
"""

import json
import os
import random
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402

PASS = bl.PASS_LINE + "\n"
MC_OK = ("=== 11. model checking (exhaustive bounded interleavings) ===\n"
         "  monitor: correct\n"
         "  no violations: every reachable state satisfies the invariants\n\n")
VIOLATION = ("  VIOLATION tlb-consistency at state %s: stale TLB entry\n"
             "    witness (%d events, ddmin spent 11 replays):\n"
             "      fault: tlb-prefetch(pick=0)\n")


def buggy(events=4, kind="tlb-consistency", states=("aa", "bb")):
    body = "".join((VIOLATION % (s, events)).replace("tlb-consistency", kind) for s in states)
    return ("=== 11. model checking (exhaustive bounded interleavings) ===\n"
            "  monitor: buggy (unmap does not flush the TLB)\n" + body +
            "  rediscovered the planted stale-TLB bug exhaustively (minimal witness: %d events)\n\n"
            % events)


class Tail(unittest.TestCase):
    def test_ladder_choice(self):
        # the highest ladder percentile with >= 10 samples ranked above it
        for n, pct in ((40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)):
            self.assertEqual(bl.tail(list(range(n)))[0], pct, n)
            self.assertGreaterEqual(bl.beyond(n, pct), bl.TAIL_BEYOND)

    def test_small_samples_fall_back_to_the_median(self):
        for n in (1, 5, 19, 20, 39):
            values = [float(v) for v in range(n)]
            self.assertEqual(bl.tail(values), (50.0, bl.median(values)))

    def test_cap_fixes_the_percentile(self):
        # a capped tail keeps its percentile however many samples a run gets
        for n in (40, 99, 100, 150, 1000):
            self.assertEqual(bl.tail(list(range(n)), cap=75.0)[0], 75.0, n)
        for n in (20, 39, 40, 200):
            values = [float(v) for v in range(n)]
            self.assertEqual(bl.tail(values, cap=50.0), (50.0, bl.median(values)))

    def test_values(self):
        values = list(range(1, 101))
        random.Random(1).shuffle(values)
        self.assertEqual(bl.tail(values), (90.0, 90))
        self.assertEqual(bl.percentile(values, 50), 50)
        self.assertEqual(bl.median([3, 1, 2, 4]), 2.5)
        self.assertRaises(ValueError, bl.tail, [])

    def test_mix_of_medians_ignores_the_completed_mix(self):
        weights = {"fast": 2, "slow": 1}
        even = [("fast", 1, 1.0), ("fast", 1, 1.2), ("slow", 1, 4.0)]
        skewed = even + [("slow", 1, 4.0), ("slow", 1, 4.0), ("slow", 1, 100.0)]
        self.assertAlmostEqual(bl.mix_of_medians(even, weights), (2 * 1.1 + 4.0) / 3)
        self.assertAlmostEqual(bl.mix_of_medians(skewed, weights), (2 * 1.1 + 4.0) / 3)
        # a kind a run never completed drops out and the rest renormalise
        self.assertAlmostEqual(bl.mix_of_medians([("slow", 1, 4.0)], weights), 4.0)
        self.assertRaises(ValueError, bl.mix_of_medians, [], weights)

    def test_mix_of_medians_averages_seeds(self):
        # each seed counts once, however many of its operations completed
        samples = [("x", 1, 1.0), ("x", 1, 1.0), ("x", 1, 1.0), ("x", 2, 3.0), ("x", 2, 50.0),
                   ("x", 2, 3.0)]
        self.assertAlmostEqual(bl.mix_of_medians(samples, {"x": 1}), 2.0)


class Steal(unittest.TestCase):
    def test_stat_line(self):
        line = "cpu  2082015 0 134802 1946276 1802 0 10444 150135 0 0\n"
        self.assertAlmostEqual(bl.stat_steal_s(line, 100), 1501.35)
        self.assertEqual(bl.stat_steal_s("cpu0 1 2 3 4 5 6 7 8 9 10", 100), 0.0)
        self.assertEqual(bl.stat_steal_s("cpu 1 2 3 4", 100), 0.0)

    def test_own_time(self):
        self.assertAlmostEqual(bl.own_time(0.5, 0.1, 0.4, 2), 0.4)
        self.assertEqual(bl.own_time(0.5, 0.0, 0.4, 2), 0.5)
        # steal summed over two vCPUs can exceed what the process lost
        self.assertAlmostEqual(bl.own_time(0.5, 0.45, 0.4, 2), 0.2)


class Names(unittest.TestCase):
    def test_names_and_units(self):
        for ok in ("setup_s", "lat_p50_s.light", "phase.code-proofs.busy_s", "0x", "a" * 64):
            self.assertTrue(bl.valid_name(ok), ok)
        for bad in ("", "_x", ".x", "a b", "a/b", "a" * 65, "lat%", None):
            self.assertFalse(bl.valid_name(bad), bad)
        for ok in ("ms", "s", "1/s", "count", "%", "MB"):
            self.assertTrue(bl.valid_unit(ok), ok)
        for bad in ("", "m s", "x" * 17, "s!"):
            self.assertFalse(bl.valid_unit(bad), bad)

    def test_check_metrics(self):
        want = {"a_s": "s", "b": "count"}
        good = {"a_s": {"value": 1.5, "unit": "s"}, "b": {"value": 3, "unit": "count"}}
        self.assertEqual(bl.check_metrics(good, want), [])
        bad = dict(good, c={"value": 1, "unit": "s"})
        self.assertTrue(any("unexpected" in e for e in bl.check_metrics(bad, want)))
        self.assertTrue(bl.check_metrics({"a_s": good["a_s"]}, want))
        self.assertTrue(bl.check_metrics(dict(good, b={"value": float("nan"), "unit": "count"}), want))
        self.assertTrue(bl.check_metrics(dict(good, b={"value": True, "unit": "count"}), want))
        self.assertTrue(bl.check_metrics(dict(good, b={"value": 1, "unit": "s"}), want))
        self.assertTrue(bl.check_metrics(dict(good, b={"value": 1, "unit": "count", "n": 3}), want))

    def test_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        seen = set()
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            self.assertTrue(bl.valid_name(w["name"]))
        for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
            for m in spec[group]:
                self.assertEqual(set(m), keys, m)
                self.assertTrue(bl.valid_name(m["name"]), m)
                self.assertTrue(bl.valid_unit(m["unit"]), m)
                self.assertIn(m["better"], ("lower", "higher"))
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
                if group == "end_to_end":
                    self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class Checker(unittest.TestCase):
    def test_correct_monitor(self):
        self.assertIsNone(bl.verdict_error("x\n" + PASS, 0))
        self.assertIsNone(bl.verdict_error(MC_OK + PASS, 0, model_check=True))

    def test_wrong_verdicts(self):
        self.assertIn("status", bl.verdict_error(PASS, 1))
        self.assertIsNotNone(bl.verdict_error("VERIFICATION FAIL: 1 check failed\n", 0))
        self.assertIsNotNone(bl.verdict_error(PASS + "trailing\n", 0))
        self.assertIsNotNone(bl.verdict_error(PASS, 0, model_check=True))
        self.assertIsNotNone(bl.verdict_error(buggy() + PASS, 0, model_check=True))

    def test_planted_bug(self):
        ans = {"model_check": True, "buggy_tlb": True}
        self.assertIsNone(bl.verdict_error(buggy() + PASS, 0, **ans))
        self.assertIn("4 events", bl.verdict_error(buggy(events=5) + PASS, 0, **ans))
        self.assertIn("other than", bl.verdict_error(buggy(kind="invariant") + PASS, 0, **ans))
        self.assertIn("not found", bl.verdict_error(MC_OK + PASS, 0, **ans))

    def test_doctored_stdout(self):
        ref = "=== 1. x ===\n  functions: 50\n" + PASS
        self.assertIsNone(bl.output_error(ref, ref, 0))
        doctored = ref.replace("50", "49")
        self.assertIn("differs", bl.output_error(ref, doctored, 0))
        self.assertIsNotNone(bl.output_error(ref, ref.replace("PASS", "FAIL"), 0))
        self.assertIsNotNone(bl.output_error(ref, ref, 2))

    def test_engine_line(self):
        err = "engine: 330 obligations, jobs=2, cache on, 330 hits, 0 misses, 0.002s\n"
        self.assertEqual(bl.engine_counts(err), (330, 330))
        self.assertIsNone(bl.engine_counts("nothing"))


class Wire(unittest.TestCase):
    def test_frames(self):
        a, b = bl.frame({"op": "ping"}), bl.frame({"ok": True, "stdout": "x" * 1000})
        frames, rest = bl.unframe(a + b[:10])
        self.assertEqual([json.loads(f) for f in frames], [{"op": "ping"}])
        frames, rest = bl.unframe(rest + b[10:])
        self.assertEqual(len(frames), 1)
        self.assertEqual(rest, b"")

    def test_response_identity(self):
        resp = json.dumps({"ok": True, "status": 0, "stdout": PASS,
                           "summary": {"overrides": {"enabled": False}}})
        self.assertEqual(bl.response_identity(resp.encode()), (True, 0, bl.md5(PASS), False))
        self.assertFalse(bl.response_identity(b'{"ok": false, "error": "x"}')[0])
        self.assertFalse(bl.response_identity(b"not json")[0])


class OpenLoop(unittest.TestCase):
    def test_lateness(self):
        log = bl.OpenLoopLog()
        log.add(1.0, 1.0, 1.01, True)  # on time
        log.add(2.0, 2.5, 2.51, True)  # the generator ran 0.5 s late
        log.add(3.0, 2.999, 3.01, True)  # clock jitter: never negative
        log.add(4.0, 4.0, 4.001, False)  # failed
        self.assertEqual([round(x, 6) for x in log.lateness()], [0.0, 0.5, 0.0, 0.0])
        self.assertEqual([round(x, 6) for x in log.service_times()], [0.01, 0.01, 0.011])
        self.assertEqual(log.failed(), 1)

    def test_arrivals_are_seeded(self):
        a = bl.arrivals(100.0, 2.0, bl.seeded("serve", 7))
        self.assertEqual(a, bl.arrivals(100.0, 2.0, bl.seeded("serve", 7)))
        self.assertNotEqual(a, bl.arrivals(100.0, 2.0, bl.seeded("serve", 8)))
        self.assertTrue(all(0 <= x < 2.0 for x in a) and a == sorted(a))
        self.assertTrue(120 < len(a) < 280)


if __name__ == "__main__":
    unittest.main(verbosity=1)
