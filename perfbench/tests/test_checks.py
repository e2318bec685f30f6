"""Each correctness check of the benchmark reports a corrupted output as a
failed operation.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json

import numpy as np
import pytest

import cli_part
import decode_part
import run
import verify_part
from ledger import Ledger
from reuselab import analysis
from reuselab.model import init_weights
from spans import Tracer
from workloads import WORKLOADS

MID = WORKLOADS["mid-model"]
TINY = WORKLOADS["tiny-model"]


def record(output, check) -> Ledger:
    ledger = Ledger()
    ledger.run("operation", lambda: output, check)
    return ledger


@pytest.fixture(scope="module")
def kv_decode():
    weights = init_weights(MID.decode_model)
    config = decode_part.sampler_config(MID, 3)
    _, tokens, trace = decode_part.decode(weights, config, "kv", MID.tau)
    return weights, config, tokens, trace


def check_kv(weights, config, tokens, trace, flops=None):
    if flops is None:
        flops = analysis.flops_for_trace(trace, weights.config, "kv")
    return decode_part.check_decode(weights, config, "kv", MID.tau,
                                    tokens, trace, flops)


def test_decode_check_passes_program_output(kv_decode):
    ledger = record(kv_decode, lambda out: check_kv(*out))
    assert (ledger.attempted, ledger.failed) == (1, 0), ledger.problems


def test_decode_check_flags_full_mode_confidences():
    weights = init_weights(MID.decode_model)
    config = decode_part.sampler_config(MID, 4)
    _, tokens, trace = decode_part.decode(weights, config, "full", None)
    flops = analysis.flops_for_trace(trace, weights.config, "full")
    args = (weights, config, "full", None)
    assert decode_part.check_decode(*args, tokens, trace, flops) == []
    trace.records[5].confidences[trace.records[5].unmasked] *= 1.0 + 1e-9
    ledger = record(trace, lambda t: decode_part.check_decode(
        *args, tokens, t, flops))
    assert ledger.failed == 1
    assert "reference pass" in ledger.problems[0]


@pytest.mark.parametrize("workload", [MID, TINY], ids=lambda w: w.name)
def test_decode_check_flags_mask_tokens_in_the_output(workload):
    """Only the token values change; the trace still shows every position
    committed once."""
    weights = init_weights(workload.decode_model)
    config = decode_part.sampler_config(workload, 3)
    _, tokens, trace = decode_part.decode(weights, config, "kv", workload.tau)
    flops = analysis.flops_for_trace(trace, weights.config, "kv")
    masked = np.full_like(tokens, weights.mask_token)
    ledger = record(masked, lambda t: decode_part.check_decode(
        weights, config, "kv", workload.tau, t, trace, flops))
    assert ledger.failed == 1
    assert "mask ids in the output" in ledger.problems[0]


def test_mask_check_allows_what_the_distributions_explain():
    assert decode_part.mask_problems(0, 0.0) == []
    assert decode_part.mask_problems(1, 0.05) == []
    assert decode_part.mask_problems(1, 0.0)
    assert decode_part.mask_problems(64, 0.05)


def test_decode_check_flags_a_reused_row_over_tau(kv_decode):
    weights, config, tokens, trace = kv_decode
    for i in range(1, len(trace.records)):
        rec, prev = trace.records[i], trace.records[i - 1]
        if rec.block != prev.block:
            continue
        for dec in rec.decisions:
            if not dec.eligible:
                continue
            drift = decode_part._drift(rec.q_head0[dec.layer][dec.refreshed],
                                       prev.q_head0[dec.layer][dec.refreshed])
            over = dec.refreshed[drift > MID.tau]
            if over.size:
                break
        else:
            continue
        break
    else:
        pytest.fail("no refreshed row drifted above tau")
    moved = dataclasses.replace(
        dec, reused=np.sort(np.append(dec.reused, over[0])),
        refreshed=dec.refreshed[dec.refreshed != over[0]])
    decisions = [moved if d is dec else d for d in rec.decisions]
    records = list(trace.records)
    records[i] = dataclasses.replace(rec, decisions=decisions)
    corrupt = dataclasses.replace(trace, records=records)
    ledger = record(corrupt, lambda t: check_kv(weights, config, tokens, t))
    assert ledger.failed == 1
    assert "> tau" in ledger.problems[0]


def test_decode_check_flags_a_flop_total_off_by_one(kv_decode):
    weights, config, tokens, trace = kv_decode
    full, actual, fraction = analysis.flops_for_trace(trace, weights.config,
                                                      "kv")
    ledger = record((full, actual + 1, fraction), lambda flops: check_kv(
        weights, config, tokens, trace, flops))
    assert ledger.failed == 1
    assert "closed-form recount" in ledger.problems[0]


def test_verify_check_flags_zeroed_bounds():
    weights = init_weights(verify_part.MODEL)
    G_ref = verify_part.reference_G(weights)
    config = verify_part.sampler_config(5)
    for zero, failed in ((False, 0), (True, 1)):
        got = verify_part.verify(weights, config, "kv", trials=5,
                                 debug_zero_bounds=zero)
        ledger = record(got, lambda g: verify_part.check_report(g[1], G_ref, 5))
        assert ledger.failed == failed, ledger.problems


def test_decode_span_tree_check_flags_a_missing_layer_step():
    weights = init_weights(TINY.decode_model)
    config = decode_part.sampler_config(TINY, 2)
    tracer = Tracer()
    with tracer:
        seconds, _, _ = decode_part.decode(weights, config, "kv", TINY.tau)
    args = (tracer, 0, 1, TINY.gen_length, TINY.decode_model.L, seconds)
    assert run.span_tree_problems(*args) == []
    step = next(s for s in tracer.spans
                if s[0] == "reuse.dare_kv_layer_step")
    step[0] = "reuse.unwrapped"
    ledger = Ledger()
    ledger.record("decode span tree", run.span_tree_problems(*args))
    assert ledger.failed == 1
    assert "layer step spans" in ledger.problems[0]


def test_cli_generate_check_flags_mask_tokens(tmp_path):
    ledger = Ledger()
    part = cli_part.CliPart(ledger, tmp_path, run.child_env(tmp_path), TINY)
    part.set_up()
    for command in ("init_model", "calibrate", "generate"):
        part.run_command(command, 5)
    assert (ledger.attempted, ledger.failed) == (3, 0), ledger.problems
    tokens = part.multi / "tokens.json"
    n = TINY.cli_sampler["gen_length"]
    tokens.write_text(json.dumps([TINY.cli_model["n_vocab"] - 1] * n))
    problems = cli_part.check_generate(part.multi, part.run_config)
    assert problems and "mask ids in the output" in problems[0]


def test_cli_verify_with_zeroed_bounds_is_a_failed_operation(tmp_path):
    ledger = Ledger()
    part = cli_part.CliPart(ledger, tmp_path, run.child_env(tmp_path), MID)
    part.set_up()
    part.run_command("verify", 7)
    assert (ledger.attempted, ledger.failed) == (1, 0), ledger.problems
    part.run_command("verify", 7, extra=["--debug-zero-bounds"])
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "exit code 1" in ledger.problems[0]


def test_cli_histogram_check_counts_every_score():
    metadata = {"zero_mode_count": 3, "total": 10}
    rows = [["zero_mode", "0.0", "1e-06", "3"], ["0", "0.0", "0.04", "7"]]
    assert cli_part.check_histogram(metadata, rows) == []
    rows[1][3] = "6"
    assert record(rows, lambda r: cli_part.check_histogram(metadata, r)).failed


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
