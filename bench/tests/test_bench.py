"""Tests of the benchmark itself (stdlib unittest; mapscope not needed).

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TREE = (2, ((1, ()), (1, ((1, ()),))))  # (2 (1) (1 (1))) <-> 1 3 2


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in inputs.BATCHES.values():
            self.assertEqual(make(7, 2), make(7, 2))

    def test_seed_changes_draw_not_mix(self):
        a, b = inputs.stream_batch(7, 0), inputs.stream_batch(8, 0)
        self.assertNotEqual([o.text for o in a], [o.text for o in b])
        mix = lambda batch: Counter((o.nodes, o.scan) for o in batch)  # noqa: E731
        self.assertEqual(mix(a), mix(b))
        q7, q8 = inputs.count_batch(7, 0), inputs.count_batch(8, 0)
        self.assertNotEqual(q7, q8)
        kinds = lambda qs: Counter((q.kind, q.tree_nodes, q.filters, q.name) for q in qs)  # noqa: E731
        self.assertEqual(kinds(q7), kinds(q8))

    def test_trees_are_valid_beta_trees(self):
        for o in inputs.stream_batch(3, 1):
            self.assertEqual(refs.tree_facts(o.tree)["nodes"], o.nodes)
            stack = [(o.tree, True)]
            while stack:
                (label, kids), is_root = stack.pop()
                total = sum(k[0] for k in kids)
                if not kids:
                    self.assertEqual(label, 1)
                elif is_root:
                    self.assertEqual(label, total)
                else:
                    self.assertTrue(1 <= label <= total)
                stack.extend((k, False) for k in kids)

    def test_format(self):
        self.assertEqual(inputs.format_tree(TREE), "(2 (1) (1 (1)))")


class ReferenceTest(unittest.TestCase):
    def test_sequences(self):
        self.assertEqual([refs.tree_count(n) for n in range(1, 9)], [1, 1, 2, 6, 22, 91, 408, 1938])
        self.assertEqual([len(refs.all_trees(n)) for n in range(1, 9)], [1, 1, 2, 6, 22, 91, 408, 1938])
        self.assertEqual(refs._tutte_table()[:8], tuple(refs.tutte(k) for k in range(8)))
        self.assertEqual(refs.primitive_counts(6)[1:], (1, 0, 1, 2, 7, 25))
        self.assertEqual(refs.capped_tree_counts(3, 10)[1:], refs.B3_PREFIX)

    def test_dp_agrees_with_closed_forms(self):
        self.assertEqual(refs.capped_tree_counts(1, 60), refs.b1_counts(60))
        self.assertEqual(refs.capped_tree_counts(2, 60), refs.b2_counts(60))

    def test_pattern_scans(self):
        self.assertTrue(refs.has_3142((3, 1, 4, 2)))
        self.assertFalse(refs.has_3142((2, 4, 1, 3)))
        self.assertTrue(refs.has_2_41_3((2, 4, 1, 3)))
        self.assertFalse(refs.has_2_41_3((2, 5, 3, 1, 4)))  # 2 5 1 4 is 2413, not adjacent
        self.assertEqual(refs.m_occurrences((2, 5, 3, 1, 4)), 1)


class CheckerTest(unittest.TestCase):
    def test_perm_leg(self):
        text = "(2 (1) (1 (1)))"
        self.assertIsNone(refs.check_perm_leg(text, 4, "1 3 2", text))
        self.assertIsNotNone(refs.check_perm_leg(text, 4, "1 3 2", "(2 (1 (1)) (1))"))
        self.assertIsNotNone(refs.check_perm_leg(text, 4, "1 3", text))
        # 3 2 4 1 is a class member; swapping its second and fourth letters gives 3142
        self.assertIsNone(refs.check_perm_leg("(x)", 5, "3 2 4 1", "(x)"))
        self.assertIsNotNone(refs.check_perm_leg("(x)", 5, "3 1 4 2", "(x)"))

    def test_perm_stats(self):
        row = {"perm": "2 5 3 1 4", "length": 5, "components": 1, "lr_maxima": 2,
               "m_occurrences": 1, "indecomposable": True, "in_class": True, "primitive": False}
        self.assertIsNone(refs.check_perm_stats("2 5 3 1 4", json.dumps(row)))
        swapped = dict(row, perm="2 5 1 3 4")
        self.assertIsNotNone(refs.check_perm_stats("2 5 3 1 4", json.dumps(swapped)))
        self.assertIsNotNone(refs.check_perm_stats("2 5 3 1 4", json.dumps(dict(row, m_occurrences=2))))

    def test_map_and_tree_stats(self):
        printed = ('{"n_darts": 8, "alpha": [1, 0, 3, 2, 5, 4, 7, 6], '
                   '"sigma": [7, 4, 5, 1, 3, 6, 2, 0], "root": 6}')
        self.assertEqual(refs.map_scan(printed), (3, True))
        row = {"map": printed, "edges": 4, "vertices": 3, "faces": 3, "root_face_degree": 3,
               "internal_2faces": 1, "nonseparable": True, "multiple_edges": True}
        self.assertIsNone(refs.check_map_stats(TREE, printed, json.dumps(row)))
        for key, value in (("edges", 5), ("internal_2faces", 0), ("multiple_edges", False)):
            self.assertIsNotNone(refs.check_map_stats(TREE, printed, json.dumps(dict(row, **{key: value}))))
        # sigma with two darts' images swapped: the printed map now has 4 vertices
        broken = printed.replace("[7, 4, 5, 1, 3, 6, 2, 0]", "[7, 4, 5, 1, 3, 6, 0, 2]")
        self.assertIsNotNone(refs.check_map_stats(TREE, broken, json.dumps(dict(row, map=broken))))
        tree_row = {"tree": "(2 (1) (1 (1)))", "nodes": 4, "leaves": 2, "internal_nodes": 2,
                    "root_label": 2, "single_child_max_nodes": 1, "decomposable": True,
                    "primitive": False}
        self.assertIsNone(refs.check_tree_stats(TREE, tree_row["tree"], json.dumps(tree_row)))
        bad = dict(tree_row, single_child_max_nodes=0)
        self.assertIsNotNone(refs.check_tree_stats(TREE, tree_row["tree"], json.dumps(bad)))

    def test_counts_off_by_one(self):
        self.assertIsNone(refs.check_count(1938, ["1938"]))
        self.assertIsNotNone(refs.check_count(1938, ["1939"]))
        good = [str(v) for v in refs.series_reference("b3", 12)]
        self.assertIsNone(refs.check_series_text("b3", 12, good))
        self.assertIsNotNone(refs.check_series_text("b3", 12, good[:5] + ["14"] + good[6:]))

    def test_csv_and_asympt(self):
        lines = ["n,coefficient,asymptotic,relative_error", "1,1,0.147703972891,0.852296"]
        self.assertIsNone(refs.check_series_csv("b3", 1, lines))
        self.assertIsNotNone(refs.check_series_csv("b3", 1, [lines[0], "1,2,0.147703972891,0.852296"]))
        self.assertIsNone(refs.check_asympt("b1", 1000, "text", ["5.10681850813e+471"]))
        self.assertIsNotNone(refs.check_asympt("b1", 1000, "text", ["5.10681851813e+471"]))

    def test_suite_verdicts(self):
        ok = json.dumps({"suite": "counts", "params": {"n_max": 7}, "status": "pass", "witnesses": []})
        self.assertIsNone(refs.check_suite("counts", 7, 0, [ok]))
        self.assertIsNotNone(refs.check_suite("counts", 7, 1, [ok]))

    def test_theorem5_reference_matches_documented_witnesses(self):
        bad, mismatches, rows = refs.theorem5_reference(7)
        self.assertEqual(mismatches, 179)
        self.assertEqual(bad["(1 (1))"], "M=0, tree=1, faces=1")
        self.assertEqual(bad["(3 (1) (2 (1) (1)))"], "M=1, tree=0, faces=0")
        self.assertEqual([(r[1].split()[0], r[2]) for r in rows], [("6", "4"), ("19", "10"), ("78", "33")])

    def test_theorem5_verdict(self):
        bad, mismatches, rows = refs.theorem5_reference(7)
        wit = [[t, "equal triple", bad[t]] for t in list(bad)[:15]]
        wit.append(["triple equality over trees with <= 7 nodes", "0 mismatches", "179 mismatches"])
        wit += [list(r) for r in rows]
        fail = {"suite": "theorem5", "params": {"n_max": 7}, "status": "fail", "witnesses": wit}
        self.assertIsNone(refs.check_suite("theorem5", 7, 1, [json.dumps(fail)]))
        self.assertIsNotNone(refs.check_suite("theorem5", 7, 0, [json.dumps(dict(fail, status="pass"))]))
        corrupt = [
            wit[:2],
            wit[:15] + [wit[15][:2] + ["178 mismatches"]] + wit[16:],
            wit[:-1] + [wit[-1][:2] + ["34"]],
            [wit[0][:2] + ["M=0, tree=1, faces=0"]] + wit[1:],
            [["(2 (1) (1))", "equal triple", "M=0, tree=0, faces=0"]] + wit[1:],
        ]
        for w in corrupt:
            self.assertIsNotNone(refs.check_suite("theorem5", 7, 1, [json.dumps(dict(fail, witnesses=w))]))

    def test_asymptotics_verdict(self):
        grid = refs.ASYMPTOTICS_GRID
        err = lambda name, ns: ", ".join(f"{refs.asymptotic_rel_error(name, n):.4g}" for n in ns)  # noqa: E731
        wit = [
            ["P estimate at n=1000", "relative error <= 0.01", err("p", (1000,))],
            ["PPRIME estimate at n=1000", "relative error <= 0.01", err("pprime", (1000,))],
            [f"P error over n={grid}", "monotonically shrinking", f"[{err('p', grid)}]"],
            [f"PPRIME error over n={grid}", "monotonically shrinking", f"[{err('pprime', grid)}]"],
            ["gamma", "0.12347", "0.12345457"],
        ]
        self.assertEqual(wit[1][2], "3099")
        report = {"suite": "asymptotics", "params": {}, "status": "fail", "witnesses": wit}
        self.assertIsNone(refs.check_suite("asymptotics", 7, 1, [json.dumps(report)]))
        shrinking = wit[:3] + [wit[3][:2] + ["[160.5, 160.4, 160.3, 160.2, 160.1]"]] + wit[4:]
        for w in (wit[:4], shrinking, wit[:4] + [["gamma", "0.12347", "0.1235"]]):
            self.assertIsNotNone(refs.check_suite("asymptotics", 7, 1, [json.dumps(dict(report, witnesses=w))]))


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


class SpanTest(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        tree = [
            spans.Span("cli.main", -1, 0, 100),
            spans.Span("perms.perm_to_tree", 0, 10, 40),
            spans.Span("trees.validate_tree", 1, 20, 30),
            spans.Span("maps.faces", 0, 50, 90),
        ]
        self.assertEqual(spans.self_times(tree), [30, 20, 10, 40])
        groups = {"cli.main": "cli.self", "perms.perm_to_tree": "perms.perm_to_tree",
                  "trees.validate_tree": "trees.validate", "maps.faces": "maps.faces"}
        seconds = spans.group_self_seconds(tree, groups)
        self.assertAlmostEqual(sum(seconds.values()), 100 / 1e9)
        self.assertAlmostEqual(seconds["cli.self"], 30 / 1e9)

    def test_calls_within_a_layer_fold_into_the_caller(self):
        tracer = spans.Tracer(clock=FakeClock())
        inner = tracer.wrap(lambda: None, "perms.in_class", "perms.in_class", "perms")
        other = tracer.wrap(lambda: None, "trees.validate_tree", "trees.validate", "trees")
        outer = tracer.wrap(lambda: (inner(), other()), "perms.perm_to_tree",
                            "perms.perm_to_tree", "perms")
        outer()
        self.assertEqual([s.name for s in tracer.spans], ["perms.perm_to_tree", "trees.validate_tree"])
        self.assertEqual(tracer.spans[1].parent, 0)
        self.assertEqual(tracer.calls["perms.in_class"], 1)


class RunTest(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(100, 100), 90.0)
        self.assertEqual(run.tail_percentile(2000, 2000), 99.5)
        self.assertEqual(run.tail_percentile(27, 27), 50.0)
        self.assertEqual(run.tail_percentile(13320, 1332), 99.5)  # stream: 10 batches
        self.assertEqual(run.tail_percentile(250, 50), 95.0)  # count-verify: 5 batches
        self.assertEqual(run.nearest_rank(list(range(100, 0, -1)), 90.0), 90)
        self.assertEqual(run.nearest_rank(list(range(1, 2001)), 99.5), 1990)
        self.assertEqual(run.nearest_rank([4.0], 99.9), 4.0)

    def test_loaded_ignores_bursts(self):
        times = [9.0, 6.0, 9.0, 6.0, 6.0]  # a burst over three of five batches
        self.assertEqual(run.loaded(times), 9.0)
        self.assertEqual(run.loaded([1 / t for t in times], rate=True), 1 / 9.0)
        self.assertEqual(run.loaded([7.0]), 7.0)

    def test_stopping_rule(self):
        started = time.monotonic() - 6.0  # 6 s spent so far
        self.assertTrue(run.another(SimpleNamespace(seconds=10.0), started, 3, 3))  # 6 + 2 <= 10
        self.assertFalse(run.another(SimpleNamespace(seconds=8.5), started, 2, 2))  # 6 + 3 > 8.5
        self.assertTrue(run.another(SimpleNamespace(seconds=1.0), started, 2, 3))  # below the minimum

    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         spans.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
