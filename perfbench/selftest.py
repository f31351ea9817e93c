"""Fast self-tests of the benchmark's own code.

Run from the root of a ppskit checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import unittest

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import startup  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("b", 3.0, 6.0, 0, 0),      # overlaps a: the union counts once
            Span("a.child", 2.0, 3.0, 1, 0),
            Span("c", 9.0, 12.0, 0, 0),     # clipped to the root's end
            Span("other", 20.0, 21.5, -1, 1),
        ]
        self.assertEqual(self_times(spans), [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0, 1.5])

    def test_per_layer_uses_self_time_and_counts(self):
        spans = [
            Span("cli.main", 0.0, 4.0, -1, 7),
            Span("pnd.write_pnd_csv", 1.0, 1.5, 0, 7),
            Span("pnd.write_pnd_csv", 2.0, 2.5, 0, 7),
        ]
        values, absent = layers.per_layer(spans, {7: 0}, {}, "demo")
        self.assertEqual(values["cli.main_self_s"], 3.0)
        self.assertEqual(values["pnd.write_pnd_csv_s"], 1.0)
        self.assertEqual(values["jsd.segment_calls"], 0.0)
        self.assertIn("jsd.segment_calls", absent)


class TracerTest(unittest.TestCase):
    def test_wraps_imported_names_and_restores_them(self):
        import ppskit.detection as det
        import ppskit.estimate as est
        import ppskit.jsd as jsd

        original = det.outcome_map
        post_init = jsd.JsdGrid.__dict__["__post_init__"]
        tracer = Tracer()
        layers.install(tracer)
        try:
            self.assertIs(est.outcome_map, det.outcome_map)
            self.assertIsNot(est.outcome_map, original)
            est.outcome_map(det.DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5))
            jsd.gaussian_jsd(0.05, 0.24, n_s=8, n_i=8)
        finally:
            tracer.uninstall()
        self.assertIs(est.outcome_map, original)
        self.assertIs(jsd.JsdGrid.__dict__["__post_init__"], post_init)
        self.assertEqual(
            [s.name for s in tracer.spans],
            ["detection.outcome_map", "jsd.gaussian_jsd", "jsd.grid"],
        )
        self.assertEqual(tracer.spans[2].parent, 1)


def inputs_fingerprint(workload) -> str:
    """Hash of every generated input file and value."""
    h = hashlib.sha256()
    for op in workload.ops:
        h.update(str(op.kind).encode())
        for key in sorted(op.inputs):
            value = op.inputs[key]
            if isinstance(value, str) and os.path.isfile(value):
                with open(value, "rb") as fh:
                    h.update(fh.read())
            elif hasattr(value, "p"):  # a PndMatrix
                h.update(value.p.tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


class InputsTest(unittest.TestCase):
    def setUp(self):
        self.base = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")

    def tearDown(self):
        shutil.rmtree(self.base, ignore_errors=True)

    def fingerprint(self, cls, seed, tag):
        workdir = os.path.join(self.base, f"{cls.name}-{seed}-{tag}")
        os.makedirs(workdir)
        return inputs_fingerprint(cls(seed, workdir, 2 * len(cls.kinds)))

    def test_same_seed_same_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                a = self.fingerprint(cls, 5, "a")
                self.assertEqual(a, self.fingerprint(cls, 5, "b"))
                self.assertNotEqual(a, self.fingerprint(cls, 6, "c"))


class ReportingTest(unittest.TestCase):
    def test_tail_has_ten_ops_beyond(self):
        self.assertIsNone(run.tail([1.0] * 19))
        value, pct, n = run.tail([float(i) for i in range(40)])
        self.assertEqual((value, pct, n), (29.0, 75, 40))

    def test_parse_importtime(self):
        text = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   scipy.special._ufuncs\n"
            "import time:      3000 |     250000 | scipy.special\n"
            "import time:       400 |        900 | ppskit.jsd\n"
        )
        table = startup.parse_importtime(text)
        self.assertEqual(table["scipy.special"], (3000, 250000))
        self.assertEqual(table["ppskit.jsd"], (400, 900))
        self.assertEqual(len(table), 3)


if __name__ == "__main__":
    unittest.main()
