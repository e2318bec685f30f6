"""End-to-end tests of the command-line interface.

Every command runs through ``main(argv)`` exactly as the console script
would, against temp directories. Oracles: recomputing calibration outputs
from the saved raw scores, recounting reuse events from the trace file,
and byte-level comparison of rerun outputs.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reuselab
from reuselab import cli, drift, theory
from reuselab.cli import RunConfig, main
from reuselab.drift import DriftProfile, allocate_quantiles, quantile_threshold
from reuselab.errors import ConfigError
from reuselab.model import ModelConfig, init_weights, load_weights, save_weights

from csv_metadata import read_csv_with_metadata
from test_model import rewrite_header
from test_theory import direct_tau_tilde


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(*argv) -> int:
    return main(list(argv))


def parse(*argv) -> RunConfig:
    """The RunConfig a command line builds, without running the command."""
    return cli.build_config(cli.build_parser().parse_args(list(argv)))


def write_config(path, *, L=1, H=1, seed=1, sampler_seed=11, gen_length=8,
                 steps=8, phi_bar=0.5, mode="full", weights="model.dare",
                 output_dir="out", **drift_extra):
    data = {
        "model": {"L": L, "H": H, "d": 8, "d_int": 16, "n_vocab": 32,
                  "B": 4, "activation": "relu", "seed": seed},
        "sampler": {"gen_length": gen_length, "block_size": 4,
                    "steps_per_block": steps, "tokens_unmasked_per_step": 1,
                    "temperature": 1.0, "seed": sampler_seed},
        "drift": {"phi_bar": phi_bar, "epsilon": 1.0, **drift_extra},
        "reuse": {"mode": mode, "skip_first_layers": 0,
                  "refresh_interval": 2},
        "paths": {"weights": weights, "output_dir": output_dir},
    }
    Path(path).write_text(json.dumps(data), encoding="utf-8")
    return data


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# init-model
# ---------------------------------------------------------------------------

class TestInitModel:
    def test_deterministic_bytes(self, workdir):
        assert run("init-model", "--weights", "a.dare",
                   "--output-dir", "out") == 0
        assert run("init-model", "--weights", "b.dare",
                   "--output-dir", "out") == 0
        assert sha256("a.dare") == sha256("b.dare")
        assert Path("a.dare").read_bytes()[:4] == b"DARE"

    def test_round_trip_matches_direct_init(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        loaded = load_weights("m.dare")
        direct = init_weights(RunConfig.default().model)
        assert loaded.config == direct.config
        assert np.array_equal(loaded.emb, direct.emb)
        for got, want in zip(loaded.layers, direct.layers):
            for (name, a), (_, b) in zip(got.named(), want.named()):
                assert np.array_equal(a, b), name

    def test_config_file_model_is_respected(self, workdir):
        write_config("cfg.json", L=2, seed=7)
        assert run("init-model", "--config", "cfg.json") == 0
        loaded = load_weights("model.dare")
        assert loaded.config.L == 2
        assert loaded.config.seed == 7


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

class TestCalibrate:
    def test_profile_matches_recomputation_from_saved_scores(self, workdir):
        write_config("cfg.json", L=2, phi_bar=0.4)
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("calibrate", "--config", "cfg.json") == 0

        profile = json.loads(Path("out/profile.json").read_text())
        saved = json.loads(Path("out/calibration_scores.json").read_text())
        assert profile["phi_bar"] == 0.4
        assert saved["prompts"] == 8

        phi = allocate_quantiles(np.asarray(profile["s_layer"]), 0.4, 1.0)
        assert np.allclose(phi, profile["phi_layer"], rtol=0.0, atol=1e-12)
        for ell, scores in enumerate(saved["layer_scores"]):
            want = quantile_threshold(np.asarray(scores), float(phi[ell]))
            got = profile["tau_layer"][ell]
            if want is None:
                assert got == "disabled"
            else:
                assert got == want

    def test_one_decode_and_one_drift_call_per_layer_and_trajectory(
            self, workdir, monkeypatch):
        # The prompts decode in one lockstep diffusion_generate call, and
        # each layer of each prompt's trajectory is scored in one
        # row_drift call over all of its step pairs.
        decodes, kernel_calls = [], []
        generate, row_drift = cli.diffusion_generate, drift.row_drift

        def counted_generate(*args, **kwargs):
            result = generate(*args, **kwargs)
            decodes.append(result[1])
            return result

        def counted_row_drift(*args):
            kernel_calls.append(len(args[0]))
            return row_drift(*args)

        monkeypatch.setattr(cli, "diffusion_generate", counted_generate)
        monkeypatch.setattr(drift, "row_drift", counted_row_drift)
        write_config("cfg.json", L=2, gen_length=16)
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("calibrate", "--config", "cfg.json", "--prompts", "5") == 0
        assert len(decodes) == 1 and decodes[0].sequences == 5
        trajectories = decodes[0].q_trajectories()
        assert len(trajectories) == 5 * 2   # two masked blocks per prompt
        assert len(kernel_calls) == 2 * len(trajectories)
        # B = 4 steps resolve a block: 3 step pairs of 4 rows per call.
        assert set(kernel_calls) == {(4 - 1) * 4}
        assert run("calibrate", "--config", "cfg.json", "--prompts", "0") == 2

    def test_constant_query_model_gets_uniform_allocation(self, workdir):
        write_config("cfg.json", L=2, phi_bar=0.3)
        config = RunConfig.from_dict(json.loads(Path("cfg.json").read_text()))
        weights = init_weights(config.model)
        row = weights.emb[0] / np.linalg.norm(weights.emb[0])
        flat = dataclasses.replace(
            weights, emb=np.tile(row, (config.model.n_vocab, 1)))
        save_weights(flat, "model.dare")
        assert run("calibrate", "--config", "cfg.json") == 0

        profile = json.loads(Path("out/profile.json").read_text())
        assert all(s == 0.0 for s in profile["s_layer"])
        assert all(abs(p - 0.3) <= 1e-12 for p in profile["phi_layer"])
        total = sum(profile["phi_layer"])
        assert abs(total - 2 * 0.3) <= 1e-12

    def test_calibrates_weights_whose_mask_id_is_0(self, workdir, capsys):
        # A prompt token drawn at the mask id would mask that position in
        # one prompt only; the draws skip whichever id the weights mask.
        weights = init_weights(RunConfig.default().model)
        save_weights(dataclasses.replace(weights, mask_token=0), "model.dare")
        for seed in range(10):
            assert run("calibrate", "--seed", str(seed)) == 0
        assert "error" not in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, workdir):
        write_config("cfg.json")
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("calibrate", "--config", "cfg.json") == 0
        first = sha256("out/profile.json"), sha256("out/calibration_scores.json")
        assert run("calibrate", "--config", "cfg.json") == 0
        second = sha256("out/profile.json"), sha256("out/calibration_scores.json")
        assert first == second

    def test_one_step_block_adds_no_pairs(self, workdir, capsys):
        # The calibration prompt fixes 6 of 12 tokens, which leaves the
        # second block 2 masked positions: at 2 unmasked per step it
        # resolves in one step and has no step pair to score. Calibration
        # and bench skip it, as analyze does.
        sampler = {"gen_length": 12, "block_size": 4, "steps_per_block": 4,
                   "tokens_unmasked_per_step": 2}
        Path("cfg.json").write_text(json.dumps(
            {"sampler": sampler, "paths": {"output_dir": "out"}}))
        config = RunConfig.from_dict(json.loads(Path("cfg.json").read_text()))
        trace = cli._calibration_trace(init_weights(config.model),
                                       config.sampler)
        assert 1 in {len(t) for t in trace.q_trajectories()}
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("calibrate", "--config", "cfg.json") == 0
        assert run("bench", "--config", "cfg.json", "--mode", "kv") == 0
        assert run("analyze", "--config", "cfg.json", "--tau", "0.05") == 0
        assert "error" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

class TestGenerate:
    def test_full_run_needs_no_profile(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("generate", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        summary = json.loads(Path("out/summary.json").read_text())
        assert summary["mode"] == "full"
        assert summary["total_reused"] == 0
        assert summary["saved_flop_fraction"] == 0.0

    def test_every_step_refresh_matches_full_tokens(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "full") == 0
        assert run("generate", "--weights", "m.dare",
                   "--output-dir", "full") == 0
        assert run("generate", "--weights", "m.dare", "--output-dir", "kv",
                   "--mode", "kv", "--tau", "0.05",
                   "--refresh-interval", "1") == 0
        full = json.loads(Path("full/tokens.json").read_text())
        kv = json.loads(Path("kv/tokens.json").read_text())
        assert full == kv

    def test_summary_matches_trace_recount(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("generate", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", "kv", "--tau", "1.0") == 0
        summary = json.loads(Path("out/summary.json").read_text())
        records = [json.loads(line) for line in
                   Path("out/trace.jsonl").read_text().splitlines()]
        decisions = [r for r in records if "reused_count" in r]
        reused = sum(r["reused_count"] for r in decisions)
        eligible = sum(1 for r in decisions if r["eligible"])
        assert summary["total_reused"] == reused
        assert summary["eligible_slots"] == eligible
        if eligible:
            assert summary["reuse_fraction"] == reused / (eligible * 4)
        assert summary["total_reused"] > 0

    def test_reuse_mode_without_profile_or_tau_fails(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("generate", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", "kv") == 2

    def test_missing_weights_fails(self, workdir):
        assert run("generate", "--weights", "nowhere.dare",
                   "--output-dir", "out") == 2

    def test_rerun_is_byte_identical(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        args = ("generate", "--weights", "m.dare", "--output-dir", "out",
                "--mode", "o", "--tau", "0.5")
        assert run(*args) == 0
        first = [sha256(f"out/{n}") for n in
                 ("tokens.json", "trace.jsonl", "summary.json")]
        assert run(*args) == 0
        second = [sha256(f"out/{n}") for n in
                  ("tokens.json", "trace.jsonl", "summary.json")]
        assert first == second


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    def test_honest_run_passes_and_writes_report(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("verify", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", "kv", "--tau", "1.0", "--trials", "5") == 0
        report = json.loads(Path("out/report.json").read_text())
        assert report["violations"] == 0
        assert report["mode"] == "kv"
        assert report["trials"] == 5
        metadata, header, rows = read_csv_with_metadata("out/verify_steps.csv")
        assert metadata["kind"] == "verify_steps"
        assert metadata["violations"] == 0
        assert header[0] == "step"
        assert len(rows) == 8
        for row in rows:
            assert float(row[2]) <= float(row[1]) + 1e-12

    def test_zeroed_bounds_make_lossy_run_fail(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("verify", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", "kv", "--tau", "1.0", "--trials", "5",
                   "--debug-zero-bounds") == 1
        report = json.loads(Path("out/report.json").read_text())
        assert report["violations"] > 0
        assert report["G"] == 0.0

    def test_full_mode_is_a_usage_error(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("verify", "--weights", "m.dare", "--output-dir", "out",
                   "--trials", "2") == 2

    @pytest.mark.parametrize("mode", ["kv", "o"])
    def test_nan_bound_is_a_violation(self, workdir, mode, monkeypatch):
        # With tau_tilde's direct form, which is inf / inf at tau = inf,
        # every bound with stale tokens is NaN, which no measured gap lies
        # below. (tau_tilde itself falls back to a finite form there.)
        monkeypatch.setattr(theory, "tau_tilde", direct_tau_tilde)
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("verify", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", mode, "--tau", "inf", "--trials", "5") == 1
        report = json.loads(Path("out/report.json").read_text())
        assert report["violations"] > 0

    def test_multi_layer_model_is_rejected(self, workdir):
        write_config("cfg.json", L=2, mode="kv", tau_override=0.1)
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("verify", "--config", "cfg.json", "--trials", "2") == 2


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

class TestAnalyze:
    def test_artifacts_for_two_layer_model(self, workdir):
        write_config("cfg.json", L=2, mode="kv", tau_override=0.1)
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("analyze", "--config", "cfg.json") == 0

        for ell in (0, 1):
            metadata, _, rows = read_csv_with_metadata(
                f"out/drift_hist_layer{ell}.csv")
            assert metadata["layer"] == ell
            assert rows[0][0] == "zero_mode"
            counted = sum(int(r[3]) for r in rows)
            assert counted == metadata["total"]

            metadata, _, rows = read_csv_with_metadata(
                f"out/temporal_sim_layer{ell}.csv")
            assert metadata["axis"] == "timestep"
            for _, _, value in rows:
                assert -1.0 <= float(value) <= 1.0

        metadata, _, rows = read_csv_with_metadata("out/value_layer_sim.csv")
        assert metadata["axis"] == "layer"
        assert metadata["n"] == 2
        assert len(rows) == 4

    def test_trace_cross_check(self, workdir):
        write_config("cfg.json", mode="kv", tau_override=0.1)
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("generate", "--config", "cfg.json") == 0
        assert run("analyze", "--config", "cfg.json",
                   "--trace", "out/trace.jsonl") == 0
        # A different sampler seed reproduces a different trace.
        assert run("analyze", "--config", "cfg.json", "--seed", "99",
                   "--trace", "out/trace.jsonl") == 2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

class TestBench:
    def setup_run(self, mode="kv"):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("bench", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", mode, "--phi-grid", "0.0,0.25,0.5,0.75,1.0") == 0
        metadata, header, rows = read_csv_with_metadata("out/bench.csv")
        return metadata, header, rows

    def test_grid_columns_and_monotonicity(self, workdir):
        metadata, header, rows = self.setup_run()
        assert metadata["kind"] == "bench"
        assert tuple(header) == ("phi_bar", "reuse_fraction",
                                 "saved_flop_fraction", "mean_coupled_error")
        assert len(rows) == 5
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][2]) == 0.0
        assert float(rows[0][3]) == 0.0
        reuse = [float(r[1]) for r in rows]
        saved = [float(r[2]) for r in rows]
        assert reuse == sorted(reuse)
        assert saved == sorted(saved)
        assert reuse[-1] > 0.0

    def test_singleton_grid_matches_full_grid_row(self, workdir):
        # The grid runs as one stack; each row keeps its one-budget bits.
        for mode in ("kv", "o"):
            _, _, rows = self.setup_run(mode)
            assert run("bench", "--weights", "m.dare", "--output-dir",
                       "single", "--mode", mode, "--phi-grid", "0.5") == 0
            _, _, single = read_csv_with_metadata("single/bench.csv")
            assert single[0] == rows[2], mode

    def test_full_mode_is_a_usage_error(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("bench", "--weights", "m.dare", "--output-dir", "out",
                   "--phi-grid", "0.5") == 2

    def test_bad_grid_values_are_usage_errors(self, workdir):
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        assert run("bench", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", "kv", "--phi-grid", "0.5,1.5") == 2
        assert run("bench", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", "kv", "--phi-grid", ",") == 2

    @pytest.mark.parametrize("flag, value, words", [
        ("--refresh-interval", "0", "refresh_interval must be >= 1"),
        ("--skip-layers", "-1", "skip_first_layers must be >= 0"),
    ], ids=["refresh-interval", "skip-layers"])
    def test_bad_gate_settings_are_usage_errors(self, workdir, capsys, flag,
                                                value, words):
        # bench replays the gate without a ReuseState, so the settings
        # are checked where the run is built, as for generate and verify.
        assert run("init-model", "--weights", "m.dare",
                   "--output-dir", "out") == 0
        capsys.readouterr()
        assert run("bench", "--weights", "m.dare", "--output-dir", "out",
                   "--mode", "kv", "--phi-grid", "0.5", flag, value) == 2
        assert words in capsys.readouterr().err
        assert not Path("out/bench.csv").exists()


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

class TestConfigPlumbing:
    def test_flags_override_config_file(self, workdir):
        write_config("cfg.json", phi_bar=0.9)
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("calibrate", "--config", "cfg.json",
                   "--phi-bar", "0.2") == 0
        profile = json.loads(Path("out/profile.json").read_text())
        assert profile["phi_bar"] == 0.2

    @pytest.mark.parametrize("data, flags", [
        ({"sampler": {"seed": 3}}, ("--seed", "3")),
        ({"drift": {"tau_override": 0.25}}, ("--tau", "0.25")),
        ({"reuse": {"mode": "kv"}}, ("--mode", "kv")),
    ], ids=["sampler-seed", "drift-tau", "reuse-mode"])
    def test_config_file_and_flag_build_the_same_run(self, workdir, data,
                                                     flags):
        Path("cfg.json").write_text(json.dumps(data), encoding="utf-8")
        assert parse("generate", "--config", "cfg.json") \
            == parse("generate", *flags)

    def test_partial_section_keeps_the_run_defaults(self):
        default = RunConfig.default()
        assert RunConfig.from_dict({"model": {"L": 2}}) == dataclasses.replace(
            default, model=dataclasses.replace(default.model, L=2))

    # (flag, argument, section, field, value), written out by hand so that
    # a flag wired to the wrong field fails; every value differs from the
    # run default.
    COMMON_FLAGS = [
        ("--weights", "w.dare", "paths", "weights", "w.dare"),
        ("--output-dir", "elsewhere", "paths", "output_dir", "elsewhere"),
        ("--phi-bar", "0.25", "drift", "phi_bar", 0.25),
        ("--epsilon", "2.5", "drift", "epsilon", 2.5),
        ("--mode", "o", "reuse", "mode", "o"),
        ("--tau", "0.125", "drift", "tau_override", 0.125),
        ("--skip-layers", "1", "reuse", "skip_first_layers", 1),
        ("--refresh-interval", "5", "reuse", "refresh_interval", 5),
        ("--seed", "3", "sampler", "seed", 3),
        ("--steps", "6", "sampler", "steps_per_block", 6),
        ("--gen-length", "12", "sampler", "gen_length", 12),
    ]

    @pytest.mark.parametrize("flag, text, section, field, value",
                             COMMON_FLAGS, ids=[f[0] for f in COMMON_FLAGS])
    def test_common_flag_sets_exactly_its_field(self, flag, text, section,
                                                field, value):
        want = dataclasses.asdict(RunConfig.default())
        assert want[section][field] != value
        want[section][field] = value
        got = dataclasses.asdict(parse("generate", flag, text))
        assert got == want
        assert type(got[section][field]) is type(value)

    def test_per_head_scoring_is_rejected(self, workdir, capsys):
        write_config("cfg.json", per_head=True)
        assert run("init-model", "--config", "cfg.json") == 2
        err = capsys.readouterr().err
        assert "per_head" in err and "'drift'" in err

    @pytest.mark.parametrize("data, words", [
        ([1, 2], "JSON object"),
        ({"modle": {}}, "modle"),
        ({"sampler": [4]}, "'sampler'"),
        ({"model": {"L": "2"}}, "'model': L must be int"),
        ({"drift": {"phi_bar": "0.5"}}, "'drift': phi_bar must be float"),
        ({"reuse": {"refresh_interval": 2.0}}, "'reuse'"),
        ({"paths": {"weights": None}}, "'paths'"),
        ({"reuse": {"refresh": 2}}, "refresh"),
    ], ids=["list", "unknown-section", "section-list", "model-type",
            "drift-type", "reuse-type", "paths-type", "unknown-field"])
    def test_malformed_config_file_exits_2(self, workdir, capsys, data,
                                           words):
        Path("cfg.json").write_text(json.dumps(data), encoding="utf-8")
        assert run("init-model", "--config", "cfg.json") == 2
        assert words in capsys.readouterr().err
        assert not Path("model.dare").exists()

    @pytest.mark.parametrize("exc", [TypeError, KeyError])
    def test_internal_errors_are_not_usage_errors(self, workdir, monkeypatch,
                                                  exc):
        # A bug inside a command must surface with its traceback, not as
        # exit code 2.
        def broken(config):
            raise exc("internal")

        monkeypatch.setattr(cli, "cmd_generate", broken)
        with pytest.raises(exc):
            run("generate")

    def test_unknown_mode_is_an_argparse_error(self, workdir):
        with pytest.raises(SystemExit):
            run("generate", "--mode", "turbo")

    def test_block_size_is_not_a_flag(self, workdir, capsys):
        # The sampler's block size has one legal value, the model's B, so
        # no flag sets it; a config file still names it.
        with pytest.raises(SystemExit) as exc:
            run("generate", "--block-size", "4")
        assert exc.value.code == 2
        assert "unrecognized arguments: --block-size" \
            in capsys.readouterr().err

    # sha256 of the help text of the top level and of each subcommand at
    # COLUMNS=80, so a change in how the parser is built cannot move a
    # flag, its help or its order unnoticed.
    HELP_SHA256 = {
        "": "63168f02eafeedf032ba5d714fb9f6f54283661cf4035d006695cb057a7a6734",
        "init-model":
            "6ec4342d171fa80968b4816493627f7e61669850bb92ccfe9de3fd529ffa00ba",
        "calibrate":
            "28567cc65a11d1e327364300ed76c134a2cb48cc3a0f4865adaacf8cb945292d",
        "generate":
            "ac759ca3e26128ee6f5124183f0891f02cde86b6b33ba83a88fd334e8eb0595b",
        "verify":
            "753471b02b4e12ae340ebc5aca70fc9a4a71c63a2bd5c17fe223238e552f9f79",
        "analyze":
            "47c93ac82df72b9db226a629d972782041ebb443e911ae5004d51fa5a97c6ac7",
        "bench":
            "9e0828368c5abdc578eaa425cd240cb85f82ae3dba3a8842c46742f10007b969",
    }

    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_text_is_pinned(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run(*filter(None, [command]), "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() \
            == self.HELP_SHA256[command], text

    def test_run_config_round_trips(self, workdir):
        config = RunConfig.default()
        data = json.loads(json.dumps(dataclasses.asdict(config)))
        again = RunConfig.from_dict(data)
        assert again == config

    def test_nan_temperature_in_config_file_fails(self, workdir, capsys):
        data = write_config("cfg.json")
        data["sampler"]["temperature"] = float("nan")
        Path("cfg.json").write_text(json.dumps(data), encoding="utf-8")
        assert "NaN" in Path("cfg.json").read_text(encoding="utf-8")
        assert run("init-model", "--config", "cfg.json") == 2
        assert "temperature" in capsys.readouterr().err
        assert not Path("model.dare").exists()

    def test_import_does_not_load_scipy(self):
        # scipy is needed for GELU models only and is imported on first use;
        # logging only when allocate_quantiles clamps a layer.
        src = str(Path(reuselab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, reuselab.cli; "
             "print('scipy' in sys.modules, 'logging' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False"]

    def test_mismatched_weights_are_rejected(self, workdir):
        write_config("cfg.json", seed=1)
        assert run("init-model", "--config", "cfg.json") == 0
        write_config("cfg.json", seed=2)
        assert run("generate", "--config", "cfg.json") == 2

    def test_malformed_weight_file_exits_2(self, workdir, capsys):
        write_config("cfg.json")
        assert run("init-model", "--config", "cfg.json") == 0
        raw = Path("model.dare").read_bytes()
        Path("model.dare").write_bytes(raw[:6])
        capsys.readouterr()
        assert run("generate", "--config", "cfg.json") == 2
        assert "error: weight file ends inside its preamble" \
            in capsys.readouterr().err

    def test_malformed_profile_exits_2(self, workdir, capsys):
        write_config("cfg.json", mode="kv")
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("calibrate", "--config", "cfg.json") == 0
        profile = json.loads(Path("out/profile.json").read_text())
        profile["tau_layer"] = [-0.5]
        Path("out/profile.json").write_text(json.dumps(profile))
        capsys.readouterr()
        assert run("generate", "--config", "cfg.json") == 2
        assert "error: threshold -0.5" in capsys.readouterr().err

    def test_weight_file_with_a_false_r_emb_exits_2(self, workdir, capsys):
        # The header's r_emb must be the embedding's largest row norm
        # (1.0); a smaller one would shrink the bound constants.
        assert run("init-model") == 0
        rewrite_header(Path("model.dare"), lambda h: h.update(r_emb=0.25))
        capsys.readouterr()
        assert run("verify", "--mode", "kv", "--tau", "0.05") == 2
        assert "error: header r_emb 0.25" in capsys.readouterr().err

    def test_profile_with_malformed_fields_exits_2(self, workdir, capsys):
        write_config("cfg.json", mode="kv")
        assert run("init-model", "--config", "cfg.json") == 0
        assert run("calibrate", "--config", "cfg.json") == 0
        profile = json.loads(Path("out/profile.json").read_text())
        profile.update(s_layer=["a"], phi_layer=[None], phi_bar="x",
                       epsilon=[], skipped_pairs=-3)
        Path("out/profile.json").write_text(json.dumps(profile))
        capsys.readouterr()
        for command in ("generate", "analyze"):
            assert run(command, "--config", "cfg.json") == 2
            assert "must hold real numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [-1.0, float("nan")],
                             ids=["negative", "nan"])
    def test_bad_tau_override_exits_2(self, workdir, capsys, tau):
        # --tau and a config file's tau_override take the threshold rule
        # a profile does: a number >= 0.
        assert run("init-model", "--output-dir", "out") == 0
        write_config("cfg.json", mode="kv", tau_override=tau)
        capsys.readouterr()
        assert run("generate", "--mode", "kv", "--tau", repr(tau),
                   "--output-dir", "out") == 2
        assert "tau_override must be a number >= 0" in capsys.readouterr().err
        assert run("generate", "--config", "cfg.json") == 2
        assert "tau_override must be a number >= 0" in capsys.readouterr().err
        assert not Path("out/tokens.json").exists()

    @pytest.mark.parametrize("tau", [True, "0.1"], ids=["bool", "str"])
    def test_tau_override_takes_the_profile_threshold_rule(self, tau):
        # Settings built in code take the one rule a profile's thresholds
        # take (drift.is_threshold), which refuses a bool.
        with pytest.raises(ConfigError,
                           match="tau_override must be a number >= 0"):
            cli.DriftSettings(tau_override=tau)
        with pytest.raises(ConfigError):
            DriftProfile(s_layer=(0.0,), phi_layer=(1.0,), tau_layer=(tau,),
                         phi_bar=1.0, epsilon=1.0)
