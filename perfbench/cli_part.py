"""The CLI part: every subcommand as a fresh ``reuselab.cli`` process.

init-model, calibrate, generate, analyze and bench use the workload's CLI
config; verify runs at the default L=1, H=1 config with a flat tau, on
weights written once during set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from decode_part import mask_commit_chance, mask_problems, reference_probs

VERIFY_TAU = 0.05
VERIFY_TRIALS = 50
COMMANDS = ("init_model", "calibrate", "generate", "analyze", "bench",
            "verify")
PROCESS_TIMEOUT_S = 120


# Runs ``python -m reuselab.cli`` and, at exit, prints the process's own
# peak RSS (VmHWM, kB) as the last line of standard error. The ru_maxrss
# that wait4 gives is no use here: Linux carries the parent's peak RSS into
# the child across fork and exec, so every child would read at least the
# benchmark's own peak.
CLI_MAIN = """import runpy, sys
try:
    runpy.run_module("reuselab.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        print(*[line for line in fh if line.startswith("VmHWM:")],
              sep="", end="", file=sys.stderr)
"""


def timed_child(argv, cwd, env) -> tuple:
    """(seconds from start to exit, exit code, standard error) of one child
    process.

    The wait blocks in waitpid: ``Popen.wait(timeout=...)`` polls with
    sleeps of up to 50 ms, which would round every time up by that much.
    A timer kills a child that outlives PROCESS_TIMEOUT_S.
    """
    start = perf_counter()
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            err = proc.stderr.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    return perf_counter() - start, code, err


def peak_rss_mb(stderr: str):
    """The VmHWM line CLI_MAIN prints last, in MB; None when missing."""
    lines = stderr.splitlines()
    if not lines or not lines[-1].startswith("VmHWM:"):
        return None
    return int(lines[-1].split()[1]) / 1024.0


def read_metadata_csv(path):
    """(metadata, header, rows) of a CSV written with a '# {json}' line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path.name}: no metadata line")
    rows = list(csv.reader(lines[1:]))
    return json.loads(lines[0][2:]), rows[0], rows[1:]


def check_weights(path, model: dict) -> list:
    raw = Path(path).read_bytes()
    if raw[:4] != b"DARE":
        return ["weight file has no DARE magic"]
    _, header_len = struct.unpack_from("<II", raw, 4)
    header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    payload = sum(8 * t["rows"] * t["cols"] for t in header["tensors"])
    problems = []
    if header["config"] != model:
        problems.append("weight file header holds another model config")
    if len(raw) != 12 + header_len + payload:
        problems.append("weight file size disagrees with its manifest")
    return problems


def check_calibrate(out) -> list:
    """Each tau is the floor(phi n)-th smallest of its layer's scores."""
    profile = json.loads((out / "profile.json").read_text(encoding="utf-8"))
    scores = json.loads((out / "calibration_scores.json")
                        .read_text(encoding="utf-8"))["layer_scores"]
    problems = []
    for ell, (phi, tau) in enumerate(zip(profile["phi_layer"],
                                         profile["tau_layer"])):
        k = math.floor(phi * len(scores[ell]))
        want = "disabled" if k == 0 else sorted(scores[ell])[k - 1]
        if tau != want:
            problems.append(f"layer {ell}: tau {tau!r}, order statistic "
                            f"{k} of its scores is {want!r}")
    return problems


def check_generate(out, run_config: dict) -> list:
    """tokens.json has gen_length in-range tokens, the unmask events of
    trace.jsonl commit every position once, and the tokens hold no more
    mask ids than the reference distributions allow (``mask_problems``),
    replaying the commits block by block on the written weights."""
    from reuselab.model import load_weights

    model, n = run_config["model"], run_config["sampler"]["gen_length"]
    B = model["B"]
    tokens = json.loads((out / "tokens.json").read_text(encoding="utf-8"))
    events = [r for r in map(json.loads, (out / "trace.jsonl")
                             .read_text(encoding="utf-8").splitlines())
              if r.get("event") == "unmask"]
    json.loads((out / "summary.json").read_text(encoding="utf-8"))
    committed = sorted(r["block"] * B + p for r in events
                       for p in r["positions"])
    problems = []
    if len(tokens) != n:
        return [f"{len(tokens)} tokens, expected {n}"]
    if not all(0 <= t < model["n_vocab"] for t in tokens):
        problems.append("a token is out of range")
    if committed != list(range(n)):
        return problems + ["a position is left masked or committed twice"]
    weights = load_weights(out / "model.dare")
    tokens = np.asarray(tokens)
    inputs, still_masked = [], []
    for r in events:
        if r["step"] == 0:
            block = np.full(B, weights.mask_token, dtype=np.int64)
            masked = np.ones(B, dtype=bool)
        inputs.append(block.copy())
        still_masked.append(masked.copy())
        positions = np.asarray(r["positions"])
        block[positions] = tokens[r["block"] * B + positions]
        masked[positions] = False
    expected = sum(mask_commit_chance(probs, masked, weights.mask_token)
                   for probs, masked in zip(reference_probs(weights, inputs),
                                            still_masked))
    return problems + mask_problems(
        int((tokens == weights.mask_token).sum()), expected)


def check_histogram(metadata, rows) -> list:
    counts = [int(row[3]) for row in rows]
    problems = []
    if rows[0][0] != "zero_mode" or counts[0] != metadata["zero_mode_count"]:
        problems.append("zero-mode row disagrees with the metadata")
    if sum(counts) != metadata["total"]:
        problems.append(f"histogram counts add up to {sum(counts)}, "
                        f"total is {metadata['total']}")
    return problems


def check_analyze(out, layers: int) -> list:
    problems = []
    for ell in range(layers):
        read_metadata_csv(out / f"temporal_sim_layer{ell}.csv")
        metadata, _, rows = read_metadata_csv(out / f"drift_hist_layer{ell}.csv")
        problems += check_histogram(metadata, rows)
    if layers >= 2:  # cross-layer similarity needs two layers
        read_metadata_csv(out / "value_layer_sim.csv")
    return problems


def check_bench(out) -> list:
    _, header, rows = read_metadata_csv(out / "bench.csv")
    phi = [float(r[header.index("phi_bar")]) for r in rows]
    frac = [float(r[header.index("reuse_fraction")]) for r in rows]
    order = np.argsort(phi, kind="stable")
    if np.any(np.diff(np.asarray(frac)[order]) < 0.0):
        return ["bench.csv reuse fraction decreases as phi_bar grows"]
    return []


def check_verify(out) -> list:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    read_metadata_csv(out / "verify_steps.csv")
    if report["violations"] != 0:
        return [f"{report['violations']} bound violations"]
    return []


class CliPart:
    """Closed-loop CLI processes; one round runs every subcommand once."""

    def __init__(self, ledger, workdir: Path, env: dict, workload) -> None:
        self.ledger = ledger
        self.workdir = workdir
        self.env = env
        self.run_config = {"model": workload.cli_model,
                           "sampler": workload.cli_sampler}
        self.config_path = workdir / "multi.json"
        self.multi = workdir / "multi"
        self.single_weights = workdir / "single.dare"
        self.verify_out = workdir / "verify"
        self.times = {command: [] for command in COMMANDS}
        self.peak_rss_mb = 0.0  # the largest peak RSS of a subcommand

    def argv(self, command: str, seed: int, extra=()) -> list:
        if command == "verify":
            return ["verify", "--weights", str(self.single_weights),
                    "--output-dir", str(self.verify_out), "--mode", "kv",
                    "--tau", repr(VERIFY_TAU), "--trials", str(VERIFY_TRIALS),
                    "--seed", str(seed), *extra]
        multi = ["--config", str(self.config_path),
                 "--weights", str(self.multi / "model.dare"),
                 "--output-dir", str(self.multi), "--seed", str(seed)]
        sub = command.replace("_", "-")
        mode = [] if command in ("init_model", "calibrate") else ["--mode", "kv"]
        return [sub, *multi, *mode, *extra]

    def check(self, command: str, code: int) -> list:
        if code != 0:
            return [f"exit code {code}"]
        if command == "init_model":
            return check_weights(self.multi / "model.dare",
                                 self.run_config["model"])
        if command == "verify":
            return check_verify(self.verify_out)
        if command == "generate":
            return check_generate(self.multi, self.run_config)
        if command == "analyze":
            return check_analyze(self.multi, self.run_config["model"]["L"])
        if command == "calibrate":
            return check_calibrate(self.multi)
        return check_bench(self.multi)

    def process(self, argv) -> tuple:
        """(seconds from process start to exit, exit code, peak RSS MB)."""
        seconds, code, err = timed_child([sys.executable, "-c", CLI_MAIN,
                                          *argv], self.workdir, self.env)
        return seconds, code, peak_rss_mb(err)

    def in_process(self, argv) -> tuple:
        """(seconds, exit code, None) of ``reuselab.cli.main`` in this
        process."""
        from reuselab import cli
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        return perf_counter() - start, code, None

    def set_up(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.run_config),
                                    encoding="utf-8")
        subprocess.run([sys.executable, "-m", "reuselab.cli", "init-model",
                        "--weights", str(self.single_weights),
                        "--output-dir", str(self.verify_out)],
                       cwd=self.workdir, env=self.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=PROCESS_TIMEOUT_S)

    def run_command(self, command: str, seed: int, runner=None,
                    extra=()) -> float:
        """Run one subcommand as one operation; returns its wall time."""
        runner = self.process if runner is None else runner
        out = self.verify_out if command == "verify" else self.multi
        if command in ("init_model", "verify"):
            shutil.rmtree(out, ignore_errors=True)

        def check(got):
            seconds, code, rss_mb = got
            self.times[command].append(seconds)
            if runner == self.process:
                if rss_mb is None:
                    return ["no peak RSS line on standard error"]
                self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
            return self.check(command, code)
        got = self.ledger.run(f"cli {command} seed {seed}",
                              lambda: runner(self.argv(command, seed, extra)),
                              check)
        return 0.0 if got is None else got[0]

    def round(self, seed: int, runner=None) -> float:
        return sum(self.run_command(command, seed, runner)
                   for command in COMMANDS)

    def import_times(self) -> tuple:
        """(cumulative import s of reuselab.cli, of scipy) from
        ``python -X importtime`` in a fresh process. scipy's figure sums
        the cumulative times of scipy modules imported from outside scipy,
        so it includes what scipy imports first."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import reuselab.cli"],
            cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, check=True,
            timeout=PROCESS_TIMEOUT_S)
        cli_us = scipy_us = 0
        stack = []  # (depth, inside scipy) of the enclosing imports
        # importtime prints a module after its imports; read backwards so
        # each module comes before what it imported.
        for line in reversed(proc.stderr.splitlines()):
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].rstrip()
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not inside:
                scipy_us += int(fields[1])
            if name == "reuselab.cli":
                cli_us = int(fields[1])
            stack.append((depth, inside or is_scipy))
        return cli_us / 1e6, scipy_us / 1e6

    def metrics(self) -> dict:
        return {f"cli_{command}_s": float(np.mean(self.times[command]))
                for command in COMMANDS}
