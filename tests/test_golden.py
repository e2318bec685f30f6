"""Golden checks of the command-line interface and the samplers.

Runs a fixed sequence of subcommands through ``main(argv)`` in a temp
directory and pins, per command, its exit code, the sha256 of its standard
output and the sha256 of every artifact it wrote or rewrote (wall-clock
``*.meta.json`` sidecars excepted). A second check pins, per model and
reuse mode, one sha256 over every ``CoupledRun`` field of a grid of
``coupled_generate`` runs and the reuse decisions they record, and a
third one sha256 over the tokens, the distributions and the traces of a
grid of ``diffusion_generate`` runs. A change that alters any of these
outputs on purpose re-pins the values and says which ones changed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from reuselab import sampler
from reuselab.cli import RunConfig, main
from reuselab.drift import DriftProfile
from reuselab.model import ModelConfig, init_weights
from reuselab.reuse import gate, staleness_norm
from reuselab.sampler import SamplerConfig, coupled_generate
from trace_staleness import staleness_norms

L2_GELU = {
    "model": {"L": 2, "H": 2, "d": 8, "d_int": 16, "n_vocab": 32, "B": 4,
              "activation": "gelu", "seed": 3},
    "sampler": {"gen_length": 8, "block_size": 4, "steps_per_block": 8,
                "tokens_unmasked_per_step": 1, "temperature": 1.0,
                "seed": 5},
}

DEFAULT_COMMANDS = (
    ("init-model",),
    ("calibrate",),
    ("generate", "--mode", "full"),
    ("generate", "--mode", "kv"),
    ("generate", "--mode", "o"),
    ("verify", "--mode", "kv", "--tau", "0.05", "--trials", "10"),
    ("verify", "--mode", "o", "--tau", "0.05", "--trials", "10"),
    ("analyze", "--mode", "kv"),
    ("bench", "--mode", "kv", "--phi-grid", "0.2,0.5"),
    ("bench", "--mode", "o", "--phi-grid", "0.2,0.5"),
)

L2_COMMANDS = (
    ("init-model",),
    ("calibrate",),
    ("generate", "--mode", "kv"),
    ("analyze", "--mode", "kv"),
    ("bench", "--mode", "kv", "--phi-grid", "0.2,0.5"),
    ("bench", "--mode", "o", "--phi-grid", "0,0.3,1"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_battery(commands, extra=()) -> list:
    """Run ``commands`` in the current directory, all writing to ``out``.

    Returns one entry per command: (command, exit code, stdout sha256,
    {artifact: sha256} of the files the command wrote or changed).
    """
    out = Path("out")
    seen = {}
    observed = []
    for command in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*command, *extra, "--weights", "model.dare",
                         "--output-dir", str(out)])
        files = {}
        for path in sorted([Path("model.dare"), *out.rglob("*")]):
            if not path.is_file() or path.name.endswith(".meta.json"):
                continue
            digest = _sha256(path.read_bytes())
            if seen.get(str(path)) != digest:
                files[str(path)] = digest
                seen[str(path)] = digest
        observed.append((" ".join(command), code,
                         _sha256(buf.getvalue().encode()), files))
    return observed


# Per command: (command, exit code, stdout sha256, {artifact: sha256}).
PINNED_DEFAULT = [
    ("init-model", 0,
     "0685c6b1788aa6c0676fcf2e9792820e88dcf7a14e8be5e1c3cbc7b81cf5ab17",
     {
        "model.dare":
            "777e2584e87ac07737d6b196f29df758b123ed15324855169d117edab56b7acc",
     }),
    ("calibrate", 0,
     "7608e01ead136483b85c5216f3a8b266112c8a7e1e7753969838d6a4ba6de5dd",
     {
        "out/calibration_scores.json":
            "8041c94202cacce2a11b0cb6e02bb89e26fabd3070766647a5d469ae46a6d0bd",
        "out/profile.json":
            "842a35bc3d348ef4cbf3e653af44e5d7cfbde111d562336db096e2c5cb7748eb",
     }),
    ("generate --mode full", 0,
     "73a07cc4ab447ddaaf570929aa7862cbb7aefca174d7b57b9b6cc23df9f47628",
     {
        "out/summary.json":
            "3905354916414177079221efca228b1da7f3c9193976821c9df2e551b7e5ec35",
        "out/tokens.json":
            "c923b63316234e0a499e8df15d1a4f3718009aa9b676dc4c2fde57315588e346",
        "out/trace.jsonl":
            "7dca0a79984846efe4fdff32faa14f3b5c65c1cd5ae31a5ef8c9612c237c940e",
     }),
    ("generate --mode kv", 0,
     "13bd192f0962ac124edd0d3fa1f0c4a55e0ab4cec6760eaaa3384875e6871e38",
     {
        "out/summary.json":
            "b217d19cda64ff3508abb4e728a203f3f295629a1449c8e07d9f342f70fdd09a",
        "out/trace.jsonl":
            "dfc6f16fa09fc45c91a6755f78b3a4632162f1cd99741c20d89e619f087f43f4",
     }),
    ("generate --mode o", 0,
     "12cd258c9201bf109acf5a6364e725455655adb72ba76cccf4c44e90c4b1eeb6",
     {
        "out/summary.json":
            "792a279ff450e2f7c371d97e1f6ec6700ac2593eb3cb0f9819aea7d94508ffdb",
        "out/tokens.json":
            "c0aa3c2d1734806a63e867165ea9f68ded6aa129792a55055a2c339251cea8ad",
        "out/trace.jsonl":
            "59fecca03cc29e5c6fb3ce4650a53feea9aba7ae8ca5453b5d313c3e7dfc3e5d",
     }),
    ("verify --mode kv --tau 0.05 --trials 10", 0,
     "cf25971a19a411e821defb2ea3c03d58988d0d14d048b3f27efece3d3dc2c36a",
     {
        "out/report.json":
            "18a047a6eab9a64d257048edb827457cf135c73d6ab76fcd77459a8a20202e66",
        "out/verify_steps.csv":
            "36e21e213d4c71f1bd9a070d2b1dfce190798666e392500dd31b4be9d20e4b9a",
     }),
    ("verify --mode o --tau 0.05 --trials 10", 0,
     "cf25971a19a411e821defb2ea3c03d58988d0d14d048b3f27efece3d3dc2c36a",
     {
        "out/report.json":
            "9afe7f669430fb0167d1eda157f36876ae93e0778d6b8ea03c0d545850fe0640",
        "out/verify_steps.csv":
            "3013d4bc3e735b88c8edca2cf584cde46ed28764e8d9a04276a23f47cd58ec7b",
     }),
    ("analyze --mode kv", 0,
     "f6aafaa7baf3d66342fa8894a7b6d4a74667c2495ffcc636143df4d8df473856",
     {
        "out/drift_hist_layer0.csv":
            "c1207675104668f5cb60ddc51d4360e3dbdc091f8b2bcaac3e651881eb4aefea",
        "out/temporal_sim_layer0.csv":
            "8b112cee092c7d3ebba7e9066342167fec1edf8f16e93c95c63129ce3765b32a",
     }),
    ("bench --mode kv --phi-grid 0.2,0.5", 0,
     "9730e2ce95c2496dc932e03f4fbdd0283038ddda77d968a41576b0116a9524f9",
     {
        "out/bench.csv":
            "f66f5dd637ba085e83658f18c36ea2506d09e5d3987be2edb5380641ed40beee",
     }),
    ("bench --mode o --phi-grid 0.2,0.5", 0,
     "a7ea968dd94f58bce10068de521e8a193bb192bdf93c7b6b85ce7d38aad038a9",
     {
        "out/bench.csv":
            "43961159424c536843e4354fa510d142ccaa7a3c7f7962e4d6b86de81f46353c",
     }),
]

PINNED_L2_GELU = [
    ("init-model", 0,
     "d74377a244e3c9782881ec63f04111fe21f62ed6e7b2ff908eafa71e0a98f393",
     {
        "model.dare":
            "457ef3cb3c702466e203f8e15bccdf2cdd5f31ef567ffd641cf7730514c325fb",
     }),
    ("calibrate", 0,
     "d1256250c2c0cdcc8f7bcc2ff55540fa3acbfe0a3bdae86eead9a6634a74df49",
     {
        "out/calibration_scores.json":
            "b84e3a3773954f8f868b7ec86b5aae5b68d4997ac02b145ab7e98c703494ab6b",
        "out/profile.json":
            "b17989c997f4c66c11afba8b53e53fc24f90d39a7e64956cbc7bf4b0e9e5d4d5",
     }),
    ("generate --mode kv", 0,
     "2e510a0cd53ae1fa107d2a5fb8e1ab29fc75d8e4e1d96c65343f530b3fc27d61",
     {
        "out/summary.json":
            "55b8539593492caed6a00781f0766e4ac3814765c976ae8e9ad9cc63c6419dce",
        "out/tokens.json":
            "73975feada947cb4f4a5fddb04346c1b830673aa374a294060e67dd84f483a61",
        "out/trace.jsonl":
            "a43cbe695159890fb77a7141248da84eabfb87e2f85d6418db68ef868ced983f",
     }),
    ("analyze --mode kv", 0,
     "67911f09e4257a1d2fcb0fe7b2c7d16130f9e48ee69764de02db75ab074557cc",
     {
        "out/drift_hist_layer0.csv":
            "43a805c4352da9a5d06334d0cff9a7545a7718aa477debf6ee2737b031f7d7a5",
        "out/drift_hist_layer1.csv":
            "003eeb6f4de541d9bffafb0fd27c45101f78c50413745d7d265e53a4ca2cf658",
        "out/temporal_sim_layer0.csv":
            "c9f974e5b6a4b062551e001638975f830d6cbece4ab8c91c4ca8289255846937",
        "out/temporal_sim_layer1.csv":
            "9ef14c1055a1c13b0ca9777ee6dedcce8a5f676e0934efd54e54f3e1a5686c6c",
        "out/value_layer_sim.csv":
            "17ee6baf2d1f4f9551d50edf939cc10eca7cc592b8ec83e46a3af819c4d366a9",
     }),
    ("bench --mode kv --phi-grid 0.2,0.5", 0,
     "896259d4eed7bbb2bd9acefe1654ecd20c722a1f6c4535088a3423416b61ac27",
     {
        "out/bench.csv":
            "10b99ec7e954caf88a543835b7767e94a5d61a8c0a6aded8d517edf661963b1c",
     }),
    ("bench --mode o --phi-grid 0,0.3,1", 0,
     "adf7514e63c5c1dcf5237525a6aeb9ca737c602759c75214cb394871e48c8642",
     {
        "out/bench.csv":
            "8c24c598bfed2985fadf6bdc73909c2e3153b18e7e37827515bf3dcdbd93686f",
     }),
]


def test_default_config_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_battery(DEFAULT_COMMANDS) == PINNED_DEFAULT


def test_l2_gelu_config_outputs_are_pinned(tmp_path, monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps(L2_GELU), encoding="utf-8")
    observed = run_battery(L2_COMMANDS, ("--config", "run.json"))
    analyze = L2_COMMANDS.index(("analyze", "--mode", "kv"))
    assert "out/value_layer_sim.csv" in observed[analyze][3]
    assert observed == PINNED_L2_GELU


# ---------------------------------------------------------------------------
# coupled_generate
# ---------------------------------------------------------------------------

COUPLED_MODELS = {
    "default": RunConfig.default().model,
    "l2h2-gelu": ModelConfig(**L2_GELU["model"]),
}
COUPLED_TAUS = (0.0, 0.05, 0.5)
COUPLED_REFRESH = (1, 2, 3)
# coupled_generate resamples every position from the model distributions,
# so the temperature should not matter; the grid pins that as well.
COUPLED_TEMPERATURES = (0.0, 1.0)


def coupled_decisions(run, refresh: int):
    """The reuse decisions of a one-trial run with no skipped layer, step
    by step and layer by layer, as (layer, step, eligible, reused,
    refreshed, staleness_l2).

    The staleness matrix after a step records every decision of the step:
    a layer reused a row exactly where the row's counter is > 0 and
    refreshed the rows whose counter is 0; the staleness norm is the norm
    of the layer's counters; and the slot was eligible where ``reuse.gate``
    opens it.
    """
    T, L = run.per_step_delta.shape[1:3]
    for t in range(T):
        for ell in range(L):
            row = run.per_step_delta[0, t, ell]
            yield (ell, t, gate(ell, t, 0, refresh),
                   np.flatnonzero(row > 0), np.flatnonzero(row == 0),
                   staleness_norm(row))


def coupled_digest(model: str, mode: str) -> str:
    """sha256 over every CoupledRun field of the grid's one-trial runs and
    every decision they record, in order."""
    cfg = COUPLED_MODELS[model]
    weights = init_weights(cfg)
    h = hashlib.sha256()
    for tau in COUPLED_TAUS:
        profile = DriftProfile(s_layer=(0.0,) * cfg.L,
                               phi_layer=(1.0,) * cfg.L,
                               tau_layer=(tau,) * cfg.L, phi_bar=1.0,
                               epsilon=1.0)
        for refresh in COUPLED_REFRESH:
            for temperature in COUPLED_TEMPERATURES:
                sc = SamplerConfig(gen_length=cfg.B, block_size=cfg.B,
                                   steps_per_block=8, temperature=temperature,
                                   seed=17)
                run = coupled_generate(weights, sc, profile, mode,
                                       refresh_interval=refresh)
                parts = [run.full_tokens[0], run.reuse_tokens[0],
                         run.per_step_embed_error[0], run.per_step_l1_gap[0],
                         run.per_step_delta_l2[0], run.per_step_delta[0]]
                for ell, t, eligible, reused, refreshed, norm in \
                        coupled_decisions(run, refresh):
                    parts += [np.array([ell, t, eligible]), reused,
                              refreshed, np.float64(norm)]
                for a in parts:
                    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PINNED_COUPLED = {
    ("default", "kv"):
        "e11f56318d6ff15219579efd4cfda33092ef81d865e3aa58a8c24558b618e73a",
    ("default", "o"):
        "5146818a2aed2d58e7c6c86d0747214705e9cdfea0e3d8eb14eb97e63deb8187",
    ("l2h2-gelu", "kv"):
        "7ea84064a0a4cc905e40bf7ad80da9b90cee975f62fa2fee9e86300938d0ad39",
    ("l2h2-gelu", "o"):
        "4f35cf66e5397fd0c94a90c857ef7366d3ac2bba4f5a51844e7992cafaa7c02d",
}


@pytest.mark.parametrize("key", sorted(PINNED_COUPLED), ids="-".join)
def test_coupled_generate_outputs_are_pinned(key):
    assert coupled_digest(*key) == PINNED_COUPLED[key]


# ---------------------------------------------------------------------------
# diffusion_generate
# ---------------------------------------------------------------------------

# L >= 2 throughout, so a layer can sit above one whose output is unchanged;
# "l4h2-d64" is the benchmark's mid-model and "l2h4-d256" the largest size
# the tests run (d_int 512).
DECODE_MODELS = {
    "l2h2-d16": ModelConfig(L=2, H=2, d=16, d_int=32, n_vocab=32, B=8,
                            seed=4),
    "l3h4-d32-gelu": ModelConfig(L=3, H=4, d=32, d_int=64, n_vocab=32, B=8,
                                 activation="gelu", seed=6),
    "l4h2-d64": ModelConfig(L=4, H=2, d=64, d_int=128, n_vocab=32, B=32,
                            seed=1),
    "l2h4-d256": ModelConfig(L=2, H=4, d=256, d_int=512, n_vocab=32, B=16,
                             seed=2),
}
# Per-layer threshold patterns: flat ones from "identical rows only" to
# "every finite drift", and one with layer 1 disabled between reuse layers.
DECODE_TAUS = {
    "0": lambda L: (0.0,) * L,
    "0.002": lambda L: (0.002,) * L,
    "0.05": lambda L: (0.05,) * L,
    "inf": lambda L: (float("inf"),) * L,
    "gap": lambda L: tuple(None if ell == 1 else 0.05 for ell in range(L)),
}
DECODE_GATES = ((0, 2), (1, 2), (0, 3))  # (skip_first_layers, refresh)
DECODE_TEMPERATURES = (0.0, 1.0)


def decode_digest(model: str, mode: str, monkeypatch) -> str:
    """sha256 over every decode of the grid, in order: the tokens, each
    step's distributions and every array the trace records. Full mode has
    no thresholds or gates, so it runs once per temperature."""
    cfg = DECODE_MODELS[model]
    weights = init_weights(cfg)
    h = hashlib.sha256()
    real_step = sampler.model_step

    def hashed_step(*args):
        out = real_step(*args)
        h.update(np.ascontiguousarray(out[0]).tobytes())
        return out

    monkeypatch.setattr(sampler, "model_step", hashed_step)
    points = [(None, (0, 2))] if mode == "full" else [
        (taus, gates) for taus in DECODE_TAUS for gates in DECODE_GATES]
    for taus, (skip, refresh) in points:
        profile = None if taus is None else DriftProfile(
            s_layer=(0.0,) * cfg.L, phi_layer=(1.0,) * cfg.L,
            tau_layer=DECODE_TAUS[taus](cfg.L), phi_bar=1.0, epsilon=1.0)
        for temperature in DECODE_TEMPERATURES:
            sc = SamplerConfig(gen_length=2 * cfg.B, block_size=cfg.B,
                               steps_per_block=cfg.B, temperature=temperature,
                               seed=23)
            tokens, trace = sampler.diffusion_generate(
                weights, sc, profile, mode, skip_first_layers=skip,
                refresh_interval=refresh)
            parts = [tokens]
            for rec, norm in zip(trace.records,
                                 staleness_norms(trace.records)):
                parts += [rec.input_tokens, rec.unmasked, rec.confidences,
                          np.float64(norm), *rec.q_head0]
                for dec in rec.decisions:
                    parts += [np.array([dec.layer, dec.step, dec.eligible]),
                              dec.reused.astype(np.int64),
                              dec.refreshed.astype(np.int64),
                              np.float64(dec.staleness_l2)]
            for a in parts:
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PINNED_DECODE = {
    ("l2h2-d16", "full"):
        "fb8e5366f495c5872e4acf953fdd00b49b09feafda65a3859eae7e63852bb4d9",
    ("l2h2-d16", "kv"):
        "763ae1d134103903184a443afc7d22b272e0685f97ea0c8cc2f33ffe8f7df267",
    ("l2h2-d16", "o"):
        "f2062f17ae87d8c7dbcff2acea741d60f5ded7213c4dadbcacb9d6853d8408a7",
    ("l3h4-d32-gelu", "full"):
        "dd6286f9a0e3c25c69f3b1e58828b5ae30adf0cc43a9d356a2d13e18349a32b4",
    ("l3h4-d32-gelu", "kv"):
        "33e281a91c1d8f4b451848e3679a75148ba73f9d1107556e15d54a3e184d0058",
    ("l3h4-d32-gelu", "o"):
        "b00326aac35a2b10c4e231cfd2cd9cff26a8b6d10223f9b4316d8215b84b902e",
    ("l4h2-d64", "full"):
        "529b6ca6d9c821e0b8944a7e148f8bae118d7a53bc6ad2be4047249f80304d2a",
    ("l4h2-d64", "kv"):
        "73ffc3a6e6940e521a4716eb337dcce5d47f69320f108e925840679796798084",
    ("l4h2-d64", "o"):
        "99b4698d95f0daab7be86646c2cb3af2d19b1115f1dd386d1c61de4766817309",
    ("l2h4-d256", "full"):
        "2b82ccd3962ce7edd17b8004eb6b977f9bac996800e9169a091a2e81758cfa33",
    ("l2h4-d256", "kv"):
        "f5ed3b06ccfa1b5bbefb0cc362e18c72934314c952776e6e221b2b0a9e6e61dc",
    ("l2h4-d256", "o"):
        "8fa0da1a96f8b37ba29b73ce0f55603950e27bd9117844d408b793ac7316fc03",
}


@pytest.mark.parametrize("key", sorted(PINNED_DECODE), ids="-".join)
def test_diffusion_generate_outputs_are_pinned(key, monkeypatch):
    if "gelu" in key[0]:
        pytest.importorskip("scipy")
    assert decode_digest(*key, monkeypatch) == PINNED_DECODE[key]
