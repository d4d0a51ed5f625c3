#!/usr/bin/env python3
"""Width-determinism gates for the example binaries, one table.

Every decision the In-situ AI loop makes must replay byte-identically
at any thread width. Each row of ``ROWS`` is one binary configuration;
the engine runs it at ``INSITU_THREADS=1`` and ``4``, each run in a
fresh working directory with every artifact path relative to it, then
byte-compares each listed output across the widths (stdout+stderr
minus ``stdout_filter`` lines, and every artifact, which must also be
non-empty), greps the needles (fixed strings) in the width-1 outputs,
checks that some A line precedes every B line (``precede``), and that
the ``followup`` run exits 0 and prints its needle.

Each check belongs to one or more gates (ctests). A row's own gate
runs the binary and keeps the runs in ``determinism-runs/<row>/``;
its other gates (``check_obs``, ``check_degrade``) only check them.

Usage: check_determinism.py <gate> <binary> [binary args...]
Extra arguments are appended to the row's own; the manual 1M-node run:
    scripts/check_determinism.py check_fleet_scale \\
        build/examples/fleet_scale --nodes 1000000
"""

import difflib
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

STDOUT = "stdout"  # the combined stdout+stderr of a run
WIDTHS = (1, 4)
RUNS_DIR = "determinism-runs"


@dataclass(frozen=True)
class Needle:
    gates: str  # the gate(s) that grep for it, comma-separated
    file: str   # STDOUT or an artifact path
    text: str


def grep(gates, file, *texts):
    return tuple(Needle(gates, file, t) for t in texts)


@dataclass(frozen=True)
class Row:
    gate: str
    args: tuple = ()
    env: tuple = ()       # (VAR, artifact path) pairs
    compare: tuple = ()   # (file, gates) pairs, diffed across widths
    stdout_filter: str = None  # regex of stdout lines left out of the diff
    needles: tuple = ()
    precede: tuple = None   # (gates, regex A, regex B)
    followup: tuple = None  # (gates, args, needle)


ROWS = {row.gate: row for row in (
    Row("check_chaos",  # chaos_fleet
        env=(("INSITU_TELEMETRY_JSONL", "telemetry.jsonl"),),
        compare=((STDOUT, "check_chaos"),
                 ("telemetry.jsonl", "check_obs")),
        needles=grep("check_obs", "telemetry.jsonl",
                     '"type":"meta","version":1,"clock":"simulated"',
                     '"name":"fleet.stage"',
                     '"name":"iot.uplink.delivered"',
                     '"name":"nn.forward.conv.time_s"',
                     '"name":"faults.injected.payload_loss"')),
    Row("check_serving",  # serving_demo
        compare=((STDOUT, "check_serving"),),
        followup=("check_serving", ("--acceptance",),
                  "overall acceptance: PASS")),
    Row("check_slo",  # serving_demo
        args=("--chaos",),
        env=(("INSITU_FLIGHT_DUMP", "flight.dump"),
             ("INSITU_TRACE_CHROME", "trace.json")),
        compare=((STDOUT, "check_degrade, check_slo"),
                 ("flight.dump", "check_degrade, check_slo"),
                 ("trace.json", "check_slo")),
        needles=grep("check_degrade", STDOUT, "chaos acceptance: PASS")
        + grep("check_slo", STDOUT, "slo alert", "flight recorder dumped")
        + grep("check_slo", "trace.json",
               '"cat":"flow"', '"ph":"s"', '"ph":"t"', '"ph":"f"',
               '"name":"slo.alert"', '"name":"serving.request.arrive"')
        + grep("check_slo", "flight.dump", "flight\tv1"),
        precede=("check_slo", r"slo alert",
                 r"^\[t=[0-9.]+\] health .* rung=[2-9]")),
    Row("check_recovery",  # crash_recovery
        env=(("INSITU_STATE_DIR", "state"),),
        compare=((STDOUT, "check_recovery"),
                 ("state/fleet/flight.dump", "check_recovery")),
        needles=grep("check_recovery", STDOUT,
                     "truncation sweep", "bit-rot sweep",
                     "commit-protocol sweep", "kill-anywhere sweep",
                     "flight dump: ", "recovered: stage_index=2",
                     "crash_recovery: OK")),
    Row("check_fleet_scale",  # fleet_scale
        args=("--nodes", "100000", "--stages", "6", "--chaos",
              "--transcript", "transcript.txt"),
        env=(("INSITU_FLIGHT_DUMP", "flight.dump"),),
        compare=(("transcript.txt", "check_fleet_scale"),
                 ("flight.dump", "check_fleet_scale"),
                 (STDOUT, "check_fleet_scale")),
        stdout_filter=r"^timing:",
        needles=grep("check_fleet_scale", "transcript.txt", "digest=")
        + grep("check_fleet_scale", STDOUT, "hot_allocs=0")),
    # The single-node loop (IotSystemSim): three examples and Table II.
    Row("check_quickstart", compare=((STDOUT, "check_quickstart"),)),
    Row("check_wildlife", compare=((STDOUT, "check_wildlife"),)),
    Row("check_longrun", compare=((STDOUT, "check_longrun"),)),
    Row("check_table2", compare=((STDOUT, "check_table2"),)),
)}


def gates_of(row):
    """Every gate with a check in @p row, the row's own gate first."""
    named = [g for _, g in row.compare] + [n.gates for n in row.needles]
    named += [extra[0] for extra in (row.precede, row.followup) if extra]
    return list(dict.fromkeys(
        [row.gate, *(g for gates in named for g in gates.split(", "))]))


GATES = {gate: row for row in ROWS.values() for gate in gates_of(row)}


def owns(gates, gate):
    """True if @p gate runs a check of @p gates; None runs every check."""
    return gate is None or gate in gates.split(", ")


class GateFailure(Exception):
    pass


def run(cmd, cwd, env, threads=None):
    """Runs @p cmd in @p cwd; returns (exit code, stdout+stderr)."""
    env = dict(os.environ, **env)
    if threads is not None:
        env["INSITU_THREADS"] = str(threads)
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, check=False)
    return proc.returncode, proc.stdout


def tail(out, lines=40):
    """The end of a run's output, where a fatal check prints."""
    return "\n".join(out.decode(errors="replace").splitlines()[-lines:])


def command(row, binary, extra_args=()):
    return [os.path.abspath(binary), *row.args, *extra_args]


def run_row(row, cmd, rundir):
    """Runs @p row at every width, and its follow-up, in fresh working
    dirs under @p rundir, keeping each output and exit code beside."""
    shutil.rmtree(rundir, ignore_errors=True)
    runs = [(f"threads{t}", cmd, dict(row.env), t) for t in WIDTHS]
    if row.followup:
        runs.append(("followup", [cmd[0], *row.followup[1]], {}, None))
    for name, argv, env, threads in runs:
        cwd = os.path.join(rundir, name)
        os.makedirs(cwd)
        code, out = run(argv, cwd, env, threads)
        pathlib.Path(rundir, f"{name}.out").write_bytes(out)
        pathlib.Path(rundir, f"{name}.exit").write_text(f"{code}\n")


def kept_run(rundir, name):
    """(exit code, output) of a kept run, or None if it never finished."""
    try:
        code = int(pathlib.Path(rundir, f"{name}.exit").read_text())
    except (OSError, ValueError):
        return None
    return code, pathlib.Path(rundir, f"{name}.out").read_bytes()


def read_outputs(row, cwd, out):
    """Maps STDOUT and every artifact the row reads to its bytes."""
    files = {STDOUT: out}
    for name in {f for f, _ in row.compare} | {n.file for n in row.needles}:
        path = pathlib.Path(cwd, name)
        if name != STDOUT:
            files[name] = path.read_bytes() if path.is_file() else b""
    return files


def check_gate(row, gate, rundir, cmd):
    """Runs the checks of @p row that @p gate owns (all when None) on the
    runs kept in @p rundir; returns how many passed, raises GateFailure
    on the first miss."""
    def fail(gates, what, detail=""):
        widths = ",".join(map(str, WIDTHS))
        shown = " ".join([*(f"{k}={v}" for k, v in row.env), *cmd])
        head = "".join(f"\n{line}" for line in detail.splitlines()[:40])
        raise GateFailure(f"{gate or row.gate}: FAILED ({what}; checked by "
                          f"{gates})\n  run: INSITU_THREADS={{{widths}}} "
                          f"{shown}{head}")

    outputs = {}
    for threads in WIDTHS:
        kept = kept_run(rundir, f"threads{threads}")
        if kept is None:
            fail(gate or row.gate, f"no finished threads={threads} run in "
                 f"{rundir}; run {row.gate} first")
        code, out = kept
        if code != 0:
            fail(", ".join(gates_of(row)),
                 f"exit code {code} at threads={threads}", tail(out))
        outputs[threads] = read_outputs(
            row, os.path.join(rundir, f"threads{threads}"), out)

    checks = 0
    if row.followup and owns(row.followup[0], gate):
        gates, args, needle = row.followup
        code, out = kept_run(rundir, "followup") or (None, b"")
        if code != 0 or needle.encode() not in out:
            fail(gates, f"{' '.join(args)} exited {code} "
                 f"without {needle!r}", tail(out))
        checks += 1
    first, last = (outputs[w] for w in (WIDTHS[0], WIDTHS[-1]))
    for name, gates in row.compare:
        if not owns(gates, gate):
            continue
        a, b = first[name], last[name]
        if name == STDOUT and row.stdout_filter:
            keep = re.compile(row.stdout_filter.encode())
            a, b = (b"".join(line for line in x.splitlines(True)
                             if not keep.search(line)) for x in (a, b))
        if name != STDOUT and not (a and b):
            fail(gates, f"{name} missing or empty")
        if a != b:
            diff = difflib.unified_diff(
                a.decode(errors="replace").splitlines(),
                b.decode(errors="replace").splitlines(),
                f"{name} @ threads={WIDTHS[0]}",
                f"{name} @ threads={WIDTHS[-1]}", lineterm="")
            fail(gates, f"{name} differs across thread counts",
                 "\n".join(diff))
        checks += 1
    for n in row.needles:
        if not owns(n.gates, gate):
            continue
        if n.text.encode() not in first[n.file]:
            fail(n.gates, f"missing {n.text!r} in {n.file}")
        checks += 1
    if row.precede and owns(row.precede[0], gate):
        gates, lead, follow = row.precede
        seen = False
        for line in first[STDOUT].decode(errors="replace").splitlines():
            seen = seen or re.search(lead, line) is not None
            if not seen and re.search(follow, line):
                fail(gates, f"{line!r} has no preceding /{lead}/ line")
        checks += 1
    return checks


def check_row(row, binary, extra_args=(), gate=None):
    """check_gate on a fresh run of @p row in a scratch directory."""
    cmd = command(row, binary, extra_args)
    with tempfile.TemporaryDirectory() as rundir:
        run_row(row, cmd, rundir)
        return check_gate(row, gate, rundir, cmd)


def main(argv):
    if len(argv) < 3 or argv[1] not in GATES or \
            not os.access(argv[2], os.X_OK):
        print(f"usage: {argv[0]} {{{'|'.join(GATES)}}} <binary> "
              "[binary args...]", file=sys.stderr)
        return 2
    gate, row = argv[1], GATES[argv[1]]
    cmd = command(row, argv[2], argv[3:])
    rundir = os.path.join(RUNS_DIR, row.gate)
    try:
        if gate == row.gate:
            run_row(row, cmd, rundir)
        checks = check_gate(row, gate, rundir, cmd)
    except GateFailure as e:
        print(e, file=sys.stderr)
        return 1
    print(f"{gate}: OK ({checks} checks on the {row.gate} runs at "
          f"INSITU_THREADS={' and '.join(map(str, WIDTHS))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
