"""Tests of the benchmark's own arithmetic and reference.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import measure  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 100] holds b [10, 40] and d [50, 90]; b holds c [15, 25]
        spans = [["a", 0, 100, None], ["b", 10, 40, 0], ["c", 15, 25, 1],
                 ["d", 50, 90, 0]]
        self.assertEqual(tracing.self_times(spans), [30, 20, 10, 40])

    def test_wrapped_calls_partition_the_root(self):
        t = tracing.Tracer()
        inner = t.wrap("inner", lambda: sum(range(2000)))

        def outer():
            return [inner() for _ in range(3)]

        t.wrap("outer", outer)()
        summary = t.summary()
        self.assertEqual(summary["inner"][0], 3)
        self.assertEqual(summary["outer"][0], 1)
        root_total = summary["outer"][2]
        self.assertAlmostEqual(summary["outer"][1] + summary["inner"][1], root_total,
                               places=9)
        self.assertGreaterEqual(summary["outer"][1], 0)

    def test_raised_calls_are_counted_and_closed(self):
        t = tracing.Tracer()

        def boom():
            raise ValueError("no")

        with self.assertRaises(ValueError):
            t.wrap("boom", boom)()
        self.assertEqual(t.counts["boom.raised"], 1)
        self.assertGreater(t.spans[0][2], 0)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        cases = {19: 50, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90,
                 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9}
        for n, q in cases.items():
            self.assertEqual(measure.tail(list(range(n)))[0], q, n)

    def test_nearest_rank_value(self):
        values = list(range(1, 101))
        self.assertEqual(measure.tail(values), (90, 90))
        self.assertEqual(measure.percentile(values, 50), 50)
        self.assertEqual(measure.tail(list(range(1, 41))), (75, 30))


class InstancesTest(unittest.TestCase):
    def test_hand_counts(self):
        # plain RB, |Omega| = 2, d = 2: hom-assoc 2^3 plus matching-rb 2^2 * 2^2
        self.assertEqual(tracing.axiom_instances("plain-assoc-matching-rb", 2, 2), 8 + 16)
        # tridendriform, |Omega| = 1, d = 2: seven axioms of 2^3 each
        self.assertEqual(tracing.axiom_instances("matching-hom-tridendriform", 1, 2), 56)
        # compatible Hom-Lie, |Omega| = 3, d = 3: 9 label pairs * 27 triples
        self.assertEqual(tracing.axiom_instances("compatible-hom-lie", 3, 3), 243)
        # matching Hom-Lie with --verbose adds the symmetry diagnostic
        self.assertEqual(tracing.axiom_instances("matching-hom-lie", 2, 3), 108)
        self.assertEqual(tracing.axiom_instances("matching-hom-lie", 2, 3, True), 216)

    def test_traced_count_on_a_check(self):
        from halg import catalog, check_structure
        import halg.constructions
        doc = catalog("N2-Pnil-w0")
        t = tracing.Tracer()
        with tracing.patched(tracing.halg_targets(t)):
            halg.constructions.check_structure(doc)
        self.assertEqual(t.counts["axioms.check_structure.instances"], 8 + 4)
        self.assertIs(halg.constructions.check_structure, check_structure)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_printed_metric(self):
        import json
        import run
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END.items()))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, _ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["closure", "search", "pipe"])


class SpeedGaugeTest(unittest.TestCase):
    def test_factor_is_over_the_latest_samples(self):
        g = measure.SpeedGauge()
        g.sample(6)
        self.assertEqual(len(g.samples), 6)
        latest = g.samples[-measure.SpeedGauge.LATEST:]
        self.assertEqual(g.now(), measure.REFERENCE_S / measure.median(latest))
        self.assertEqual(g.factor(), measure.REFERENCE_S / measure.median(g.samples))

    def test_reference_docs_hold(self):
        for doc in measure.REFERENCE_DOCS:
            self.assertTrue(oracle.structure_holds(doc))


class ChainTest(unittest.TestCase):
    def test_chained_docs_are_spread_over_the_cost_order(self):
        from halg import catalog
        import workloads
        docs = list(catalog().values())
        battery = workloads._Battery([], 0)
        battery.applied_base = list(docs)
        saved = workloads.CHAIN_DOCS
        workloads.CHAIN_DOCS = 3
        try:
            battery._chain()
        finally:
            workloads.CHAIN_DOCS = saved
        by_cost = sorted(docs, key=lambda d: (
            tracing.axiom_instances(d.kind, len(d.labels), d.dim), d.kind))
        n = len(docs)
        picked = [by_cost[n // 6], by_cost[3 * n // 6], by_cost[5 * n // 6]]
        chained = []
        for _, doc, _ in battery.ops:
            if not chained or chained[-1] is not doc:
                chained.append(doc)
        self.assertEqual([id(d) for d in chained], [id(d) for d in picked])
        self.assertEqual(battery.applied_base, [])


class OracleTest(unittest.TestCase):
    def test_agrees_with_known_verdicts(self):
        from halg import catalog, serialize_doc
        for name, doc in catalog().items():
            self.assertTrue(oracle.structure_holds(serialize_doc(doc)), name)
        broken = (b'{"format-version":"1","kind":"matching-hom-assoc",'
                  b'"field":{"kind":"prime-field","p":2},"dim":2,"omega":["a"],'
                  b'"families":{"dot":{"a":[[[1,0],[1,0]],[[0,0],[0,0]]]}},'
                  b'"twist":[[1,0],[0,1]]}')
        self.assertFalse(oracle.structure_holds(broken))


if __name__ == "__main__":
    unittest.main()
