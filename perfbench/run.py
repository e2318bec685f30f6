"""Benchmark for reuselab: decode throughput per reuse mode, verify
throughput and CLI wall time, with per-module spans in a traced run.

    python3 perfbench/run.py --workload mid-model --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root; it imports the package from ``src/``.
Every run measures every end-to-end metric: until ``--seconds`` have
passed it runs decode rounds, verify rounds, CLI subcommands and set-up
probes in fixed shares of the time, so all samples spread over the whole
run. The workload (``workloads.py``) sets the models they run on.
Load is a closed loop from one process on one thread (each call waits for
the previous one), with the BLAS thread count set to BLAS_THREADS. The
last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end ones with ``--trace 0``, per-layer ones
from spans with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("mid-model", "tiny-model")

# Share of the measured time each part gets, on every workload: decode and
# verify rounds, CLI subcommands, and set-up probes.
SHARES = {"decode": 0.3, "verify": 0.15, "cli": 0.4, "setup": 0.15}
# A run goes on past --seconds until it has timed this many set-ups.
SETUP_PROBES = 7
# Traced runs: this many rounds untraced, then the same rounds traced.
TRACE_ROUNDS = {"decode": 2, "verify": 3, "cli": 1}
IMPORT_PROBES = 3
# The root diffusion_generate spans must cover this share of the decode
# wall time measured around the same calls.
SPAN_COVERAGE = 0.99

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_peak_rss_mb": "MB",
    "full_tok_s": "tokens/s",
    "kv_tok_s": "tokens/s",
    "o_tok_s": "tokens/s",
    "verify_kv_trials_s": "trials/s",
    "verify_o_trials_s": "trials/s",
    "cli_init_model_s": "s",
    "cli_calibrate_s": "s",
    "cli_generate_s": "s",
    "cli_verify_s": "s",
    "cli_analyze_s": "s",
    "cli_bench_s": "s",
}

# span name -> the summary fields reported for it
SPAN_FIELDS = {
    "linalg.cosine": ("calls", "s"),
    "linalg.spectral_norm": ("calls", "s"),
    "model.attention_rows": ("s",),
    "model.mlp": ("s",),
    "model.unembed": ("s",),
    "model.embed_tokens": ("s",),
    "model.forward_full": ("calls", "s"),
    "drift.reuse_set": ("s",),
    "drift.layerwise_drift": ("s",),
    "reuse.model_step": ("s",),
    "reuse.full_layer_step": ("self_s",),
    "reuse.dare_kv_layer_step": ("self_s",),
    "reuse.dare_o_layer_step": ("self_s",),
    "sampler.diffusion_generate": ("self_s",),
    "sampler.coupled_generate": ("self_s",),
    "sampler.maximal_coupling_sample": ("calls", "s"),
    "theory.kv_step_bound": ("calls", "s"),
    "theory.o_step_bound": ("calls", "s"),
    "theory.lipschitz_G": ("s",),
    "theory.verify_run": ("self_s",),
    "analysis.drift_scores_for_layer": ("s",),
    "analysis.temporal_similarity": ("s",),
    "analysis.write_csv_with_metadata": ("s",),
    **{f"cli.cmd_{c}": ("s",) for c in ("init_model", "calibrate", "generate",
                                         "verify", "analyze", "bench")},
}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
COUNTERS = ("model.attention_rows.rows", "drift.reuse_set.rows_scored",
            "reuse.rows_reused", "reuse.rows_refreshed")
DERIVED = {
    "reuse.reuse_fraction": "ratio",
    "reuse.kv.wall_saving": "ratio",
    "reuse.o.wall_saving": "ratio",
    "analysis.cost_model.kv_saved_fraction": "ratio",
    "analysis.cost_model.o_saved_fraction": "ratio",
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "trace.overhead_s": "s",
    "trace.decode.root_self_share": "ratio",
}
PER_LAYER = {
    **{f"{name}.{field}": FIELD_UNITS[field]
       for name, fields in SPAN_FIELDS.items() for field in fields},
    **{name: "count" for name in COUNTERS},
    **DERIVED,
}


def child_env(workdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(workdir),
               PYTHONHASHSEED="0")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def time_setup(workload: str, workdir: Path, env: dict) -> tuple:
    """(seconds from starting a fresh interpreter to its set-up being done,
    that process's peak RSS in MB)."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), workload],
                          cwd=workdir, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            seconds = perf_counter() - start
            proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            raise
    fields = line.split()
    if len(fields) != 2 or fields[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return seconds, int(fields[1]) / 1024.0


def span_tree_problems(tracer, first: int, decodes: int, steps: int,
                       layers: int, wall: float) -> list:
    """Problems with the spans[first:] of ``decodes`` traced decodes of
    ``steps`` steps each: every decode is one diffusion_generate span, each
    step one model_step span under it, each layer one layer-step span
    under that; and the root spans cover the decode wall time measured
    around the calls to within 1 - SPAN_COVERAGE."""
    from spans import LAYER_STEPS

    spans = tracer.spans[first:]
    names = [span[0] for span in tracer.spans]
    roots = [s for s in spans if s[0] == "sampler.diffusion_generate"]

    def under(kinds, parent):
        return [s for s in spans
                if s[0] in kinds and s[3] >= 0 and names[s[3]] == parent]

    steps_under = under(("reuse.model_step",), "sampler.diffusion_generate")
    layers_under = under(tuple(LAYER_STEPS.values()), "reuse.model_step")
    problems = []
    for what, got, want in (("diffusion_generate", len(roots), decodes),
                            ("model_step", len(steps_under), decodes * steps),
                            ("layer step", len(layers_under),
                             decodes * steps * layers)):
        if got != want:
            problems.append(f"{got} {what} spans in place, expected {want}")
    covered = sum(s[2] - s[1] for s in roots)
    if not SPAN_COVERAGE * wall <= covered <= wall:
        problems.append(f"root spans cover {covered:.6f} s of {wall:.6f} s "
                        "decode wall time")
    return problems


def traced_rounds(parts, ledger, next_seed) -> dict:
    """Per-layer metrics: each part runs its rounds untraced, then the same
    rounds (same seeds) traced; the difference is the tracing overhead."""
    from decode_part import MODES
    from spans import Tracer

    tracer = Tracer()
    overhead = 0.0
    for name, count in TRACE_ROUNDS.items():
        part = parts[name]
        seeds = [next_seed(name) for _ in range(count)]
        kwargs = {"runner": part.in_process} if name == "cli" else {}
        untraced = sum(part.round(s, **kwargs) for s in seeds)
        first = len(tracer.spans)
        with tracer:
            traced = sum(part.round(s, **kwargs) for s in seeds)
        overhead += traced - untraced
        if name == "decode":
            workload = part.workload
            # one token per step: a decode takes gen_length steps
            ledger.record("decode span tree", span_tree_problems(
                tracer, first, count * len(MODES), workload.gen_length,
                workload.decode_model.L, traced))
            root = tracer.summary(first)["sampler.diffusion_generate"]
            root_self_share = root["self_s"] / traced

    summary = tracer.summary()
    metrics = {}
    for name, fields in SPAN_FIELDS.items():
        entry = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field in fields:
            metrics[f"{name}.{field}"] = entry[field]
    for name in COUNTERS:
        metrics[name] = tracer.counts[name]
    reused = tracer.counts["reuse.rows_reused"]
    refreshed = tracer.counts["reuse.rows_refreshed"]
    metrics["reuse.reuse_fraction"] = reused / max(reused + refreshed, 1)
    decode = parts["decode"]
    rounds = TRACE_ROUNDS["decode"]
    full = statistics.median(decode.times["full"][:rounds])
    for mode in ("kv", "o"):
        untraced_wall = statistics.median(decode.times[mode][:rounds])
        metrics[f"reuse.{mode}.wall_saving"] = 1.0 - untraced_wall / full
        metrics[f"analysis.cost_model.{mode}_saved_fraction"] = (
            statistics.fmean(decode.saved_fraction[mode]))
    probes = [parts["cli"].import_times() for _ in range(IMPORT_PROBES)]
    metrics["cli.import_s"] = statistics.median(p[0] for p in probes)
    metrics["cli.import.scipy_s"] = statistics.median(p[1] for p in probes)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.decode.root_self_share"] = root_self_share
    return metrics, tracer


def measure(parts, setup, seconds, next_seed) -> dict:
    """Closed loop until ``seconds`` have passed: each step runs one unit
    (a decode or verify round, the next CLI subcommand in turn, or one
    set-up probe) of the part furthest below its share of the time spent
    so far, so every part's samples spread over the whole run. A short run
    goes on until every part has had a unit, every CLI subcommand has run
    once and SETUP_PROBES set-ups are timed. After each unit it times the
    part's speed kernel once; returns those times by part."""
    from cli_part import COMMANDS
    from speed import kernel_seconds, spawn_seconds

    speed = {"decode": kernel_seconds, "verify": kernel_seconds,
             "cli": spawn_seconds, "setup": spawn_seconds}
    spent = dict.fromkeys(SHARES, 0.0)
    kernel = {name: [] for name in SHARES}
    commands = itertools.cycle(COMMANDS)
    cli_seed = None
    deadline = perf_counter() + seconds
    while (perf_counter() < deadline or not all(kernel.values())
           or len(kernel["cli"]) < len(COMMANDS)
           or len(kernel["setup"]) < SETUP_PROBES):
        name = min(SHARES, key=lambda n: spent[n] / SHARES[n])
        start = perf_counter()
        if name == "setup":
            setup()
        elif name == "cli":
            command = next(commands)
            if command == COMMANDS[0]:
                cli_seed = next_seed("cli")
            parts["cli"].run_command(command, cli_seed)
        else:
            parts[name].round(next_seed(name))
        spent[name] += perf_counter() - start
        kernel[name].append(speed[name]())
    return kernel


def run_workload(args) -> dict:
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    import numpy as np

    from cli_part import CliPart
    from decode_part import DecodePart
    from ledger import Ledger
    from speed import REFERENCE_S, SPAWN_REFERENCE_S
    from verify_part import VerifyPart
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    env = child_env(workdir)
    try:
        ledger = Ledger()
        parts = {"decode": DecodePart(ledger, workload),
                 "verify": VerifyPart(ledger),
                 "cli": CliPart(ledger, workdir, env, workload)}
        parts["decode"].warm_up()
        parts["verify"].warm_up()
        parts["cli"].set_up()
        rngs = {name: np.random.default_rng([args.seed, i])
                for i, name in enumerate(parts)}

        def next_seed(name):
            return int(rngs[name].integers(2 ** 31))

        parts["decode"].check_disabled_reuse(next_seed("decode"))
        slowdown = {}
        if not args.trace:
            setup = []
            kernel = measure(parts, lambda: setup.append(
                time_setup(args.workload, workdir, env)), args.seconds,
                next_seed)
            reference = {"decode": REFERENCE_S, "verify": REFERENCE_S,
                         "cli": SPAWN_REFERENCE_S, "setup": SPAWN_REFERENCE_S}
            slowdown = {name: statistics.fmean(times) / reference[name]
                        for name, times in kernel.items()}
            # each probe at the speed of the start-up kernel timed after it
            metrics = {"setup_s": statistics.median(
                           seconds * SPAWN_REFERENCE_S / spawn
                           for (seconds, _), spawn in zip(setup,
                                                          kernel["setup"])),
                       "peak_rss_mb": max(rss for _, rss in setup),
                       "cli_peak_rss_mb": parts["cli"].peak_rss_mb}
            for name, part in parts.items():
                for metric, value in part.metrics().items():
                    metrics[metric] = (value / slowdown[name]
                                       if END_TO_END[metric] == "s"
                                       else value * slowdown[name])
            units = END_TO_END
        else:
            metrics, tracer = traced_rounds(parts, ledger, next_seed)
            tracer.write(RUNS / f"spans-{args.workload}-seed{args.seed}.tsv")
            units = PER_LAYER
        return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
                "failed": ledger.failed, "problems": ledger.problems,
                "slowdown": slowdown,
                "metrics": {name: {"value": float(metrics[name]),
                                   "unit": unit}
                            for name, unit in units.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in its own process, metrics named <workload>.<name>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: attempted {result['attempted']}, "
              f"failed {result['failed']}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reuselab" / "__init__.py").is_file():
        print(f"perfbench: no reuselab package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        print(json.dumps(machine(), sort_keys=True))
        print(json.dumps({"slowdown": result.pop("slowdown")}, sort_keys=True))
        for problem in result.pop("problems"):
            print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
