#!/usr/bin/env python3
"""Self-test of the width-determinism engine in scripts/check_determinism.py.

Drives the engine with tiny fake binaries (POSIX shell scripts) whose
output is known: it must reject width-dependent output, a missing
needle (in a run or the follow-up run), an empty artifact and a line
without its required predecessor, and accept output that is identical
at every width. A gate runs only its own checks, and a row's second
gate checks the runs its first gate kept without relaunching them.
"""

import os
import stat
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "scripts"))
import check_determinism as gate  # noqa: E402

STDOUT = gate.STDOUT


class CheckDeterminism(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def fake(self, body):
        fd, path = tempfile.mkstemp(dir=self._tmp.name)
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write("#!/bin/sh\n" + body)
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def assert_rejects(self, row, body, message):
        with self.assertRaises(gate.GateFailure) as caught:
            gate.check_row(row, self.fake(body))
        self.assertIn(message, str(caught.exception))
        self.assertIn("checked by old_gate", str(caught.exception))

    def test_rejects_output_that_depends_on_the_width(self):
        row = gate.Row("fake", env=(("FAKE_OUT", "art.txt"),),
                       compare=((STDOUT, "old_gate"), ("art.txt", "old_gate")))
        with self.subTest("stdout"):
            self.assert_rejects(
                row, 'echo "threads=$INSITU_THREADS"; echo x > "$FAKE_OUT"\n',
                "stdout differs across thread counts")
        with self.subTest("artifact"):
            self.assert_rejects(
                row, 'echo same; echo "$INSITU_THREADS" > "$FAKE_OUT"\n',
                "art.txt differs across thread counts")

    def test_rejects_a_missing_needle(self):
        with self.subTest("stdout"):
            row = gate.Row("fake", compare=((STDOUT, "old_gate"),),
                           needles=gate.grep("old_gate", STDOUT, "PASS"))
            self.assert_rejects(row, "echo FAIL\n", "missing 'PASS' in stdout")
        with self.subTest("follow-up run"):
            row = gate.Row("fake", compare=((STDOUT, "old_gate"),),
                           followup=("old_gate", ("--followup",), "PASS"))
            self.assert_rejects(row, "echo FAIL\n", "without 'PASS'")

    def test_rejects_an_empty_artifact(self):
        row = gate.Row("fake", env=(("FAKE_OUT", "art.txt"),),
                       compare=((STDOUT, "old_gate"), ("art.txt", "old_gate")))
        self.assert_rejects(row, 'echo same; : > "$FAKE_OUT"\n',
                            "art.txt missing or empty")

    def test_rejects_a_line_without_its_preceding_line(self):
        row = gate.Row("fake", compare=((STDOUT, "old_gate"),),
                       precede=("old_gate", r"alert", r"rung=[2-9]"))
        self.assert_rejects(row, "echo rung=2; echo alert; echo rung=3\n",
                            "has no preceding /alert/ line")

    def test_accepts_output_identical_at_every_width(self):
        row = gate.Row(
            "fake", args=("--run",), env=(("FAKE_OUT", "art.txt"),),
            compare=((STDOUT, "old_gate"), ("art.txt", "old_gate")),
            stdout_filter=r"^timing:",
            needles=gate.grep("old_gate", STDOUT, "rung=2")
            + gate.grep("old_gate", "art.txt", "flight\tv1"),
            precede=("old_gate", r"alert", r"rung=[2-9]"),
            followup=("old_gate", ("--followup",), "followup: PASS"))
        binary = self.fake(
            'if [ "$1" = --followup ]; then echo "followup: PASS"; exit; fi\n'
            'echo "timing: $INSITU_THREADS"\n'
            "echo alert; echo rung=2\n"
            'printf "flight\\tv1\\n" > "$FAKE_OUT"\n')
        self.assertEqual(gate.check_row(row, binary), 6)

    def test_each_gate_runs_only_its_own_checks(self):
        row = gate.Row("owner", env=(("FAKE_OUT", "art.txt"),),
                       compare=((STDOUT, "owner"), ("art.txt", "other")))
        binary = self.fake(
            'echo same; echo "$INSITU_THREADS" > "$FAKE_OUT"\n')
        self.assertEqual(gate.gates_of(row), ["owner", "other"])
        self.assertEqual(gate.check_row(row, binary, gate="owner"), 1)
        with self.assertRaises(gate.GateFailure) as caught:
            gate.check_row(row, binary, gate="other")
        self.assertIn("other: FAILED (art.txt differs across thread counts",
                      str(caught.exception))

    def test_second_gate_checks_the_kept_runs(self):
        row = gate.Row("owner", compare=((STDOUT, "owner"),),
                       needles=gate.grep("other", STDOUT, "PASS"))
        binary = self.fake("echo PASS\n")
        cmd = gate.command(row, binary)
        rundir = os.path.join(self._tmp.name, "runs")
        with self.assertRaises(gate.GateFailure) as caught:
            gate.check_gate(row, "other", rundir, cmd)
        self.assertIn("run owner first", str(caught.exception))
        gate.run_row(row, cmd, rundir)
        os.remove(binary)  # the kept runs are all the second gate reads
        self.assertEqual(gate.check_gate(row, "other", rundir, cmd), 1)
        self.assertEqual(gate.check_gate(row, "owner", rundir, cmd), 1)

    def test_table_keeps_every_gate(self):
        self.assertEqual(
            {g: row.gate for g, row in gate.GATES.items()},
            {"check_chaos": "check_chaos", "check_obs": "check_chaos",
             "check_serving": "check_serving",
             "check_slo": "check_slo", "check_degrade": "check_slo",
             "check_recovery": "check_recovery",
             "check_fleet_scale": "check_fleet_scale",
             "check_quickstart": "check_quickstart",
             "check_wildlife": "check_wildlife",
             "check_longrun": "check_longrun",
             "check_table2": "check_table2"})


if __name__ == "__main__":
    unittest.main()
