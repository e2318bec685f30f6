"""Command-line front end for the activation-reuse laboratory.

Subcommands: init-model (write a weight file), calibrate (fit per-layer
reuse thresholds), generate (decode with or without reuse), verify (check
the error bounds empirically), analyze (similarity and drift artifacts),
and bench (sweep the reuse budget). Every command is deterministic given
its configuration: rerunning writes byte-identical primary outputs, and
wall-clock metadata goes to a ``<command>.meta.json`` sidecar instead.

Exit codes: 0 success, 1 verification violations, 2 usage or config error;
any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    CostModel,
    cross_layer_similarity,
    drift_scores_for_layer,
    flops_for_trace,
    histogram_csv,
    histogram_from_scores,
    similarity_csv,
    temporal_similarity,
    write_csv_with_metadata,
)
from .drift import (
    DriftProfile,
    allocate_quantiles,
    is_threshold,
    layerwise_drift,
    quantile_threshold,
    trajectory_drifts,
)
from .errors import ConfigError, StateError
from .linalg import condition_kappa
from .model import ModelConfig, init_weights, load_weights, save_weights
from .model import embed_tokens
from .reuse import (
    MODES,
    check_gate_settings,
    forward_full,
    replay_reuse,
    reuse_accounting,
    reuse_fraction,
)
from .sampler import SamplerConfig, coupled_generate, diffusion_generate
from .theory import lipschitz_G, verify_run

CALIBRATION_PROMPTS = 8
PROFILE_FILENAME = "profile.json"
SCORES_FILENAME = "calibration_scores.json"


@dataclass(frozen=True)
class DriftSettings:
    """Budget and temperature for threshold calibration.

    ``tau_override`` bypasses calibration with one flat threshold, which,
    as in a profile, must be a number >= 0. Drift is always scored on
    head 0.
    """

    phi_bar: float = 0.5
    epsilon: float = 1.0
    tau_override: float | None = None

    def __post_init__(self) -> None:
        if self.tau_override is not None \
                and not is_threshold(self.tau_override):
            raise ConfigError(
                f"tau_override must be a number >= 0, got {self.tau_override!r}")


@dataclass(frozen=True)
class ReuseSettings:
    """Which activations to reuse and how the gate is configured."""

    mode: str = "full"
    skip_first_layers: int = 0
    refresh_interval: int = 2

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_gate_settings(self.skip_first_layers, self.refresh_interval)


@dataclass(frozen=True)
class PathSettings:
    """Where the weight file lives and where outputs are written."""

    weights: str = "model.dare"
    output_dir: str = "runout"


@dataclass(frozen=True)
class RunConfig:
    """Complete configuration of one CLI invocation."""

    model: ModelConfig
    sampler: SamplerConfig
    drift: DriftSettings
    reuse: ReuseSettings
    paths: PathSettings

    @classmethod
    def default(cls) -> "RunConfig":
        return cls(
            model=ModelConfig(L=1, H=1, d=8, d_int=16, n_vocab=32, B=4,
                              activation="relu", seed=1),
            sampler=SamplerConfig(gen_length=8, block_size=4,
                                  steps_per_block=8,
                                  tokens_unmasked_per_step=1,
                                  temperature=1.0, seed=11),
            drift=DriftSettings(),
            reuse=ReuseSettings(),
            paths=PathSettings(),
        )

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        """The configuration a JSON run file describes: each field it gives
        replaces the run default, section by section.

        Raises:
            ConfigError: if ``data`` or a section is not a JSON object, a
                section is unknown, or a section has an unknown field or a
                value of the wrong JSON type; the message names the
                section.
        """
        if not isinstance(data, dict):
            raise ConfigError("run configuration must be a JSON object")
        unknown = sorted(data.keys() - _SECTIONS.keys())
        if unknown:
            raise ConfigError(f"unknown config section(s) {unknown}")
        for name, section in data.items():
            if not isinstance(section, dict):
                raise ConfigError(
                    f"config section {name!r} is not a JSON object")
            types = {f.name: f.type
                     for f in dataclasses.fields(_SECTIONS[name])}
            unknown = sorted(section.keys() - types.keys())
            if unknown:
                raise ConfigError(
                    f"config section {name!r} has unknown field(s) {unknown}")
            for key, value in section.items():
                if type(value) not in _JSON_TYPES[types[key]]:
                    raise ConfigError(f"config section {name!r}: {key} must "
                                      f"be {types[key]}, got {value!r}")
        return cls.default().merged(data)

    def merged(self, sections: dict) -> "RunConfig":
        """This configuration with the given fields of each named section
        replaced; every other field keeps its value."""
        return dataclasses.replace(self, **{
            name: dataclasses.replace(getattr(self, name), **fields)
            for name, fields in sections.items()})


# The settings class of each section of a JSON run file, and the JSON
# value types each field annotation accepts (an integer is a float too).
_SECTIONS = {"model": ModelConfig, "sampler": SamplerConfig,
             "drift": DriftSettings, "reuse": ReuseSettings,
             "paths": PathSettings}
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "float | None": (int, float, type(None))}


def _output_dir(config: RunConfig) -> Path:
    out = Path(config.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_sidecar(config: RunConfig, command: str, **extra) -> None:
    payload = {"command": command, "completed_unix": time.time()}
    payload.update(extra)
    path = _output_dir(config) / f"{command}.meta.json"
    path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                    encoding="utf-8")


def _load_run_weights(config: RunConfig):
    path = Path(config.paths.weights)
    if not path.exists():
        raise ConfigError(f"weight file {path} not found; run init-model first")
    weights = load_weights(path)
    if weights.config != config.model:
        raise ConfigError(
            f"weight file {path} was built for a different model config"
        )
    return weights


def _resolve_profile(config: RunConfig) -> DriftProfile:
    """The drift profile a reuse run needs: --tau override or profile.json."""
    L = config.model.L
    if config.drift.tau_override is not None:
        return DriftProfile(s_layer=(0.0,) * L, phi_layer=(0.0,) * L,
                            tau_layer=(config.drift.tau_override,) * L,
                            phi_bar=config.drift.phi_bar,
                            epsilon=config.drift.epsilon)
    path = _output_dir(config) / PROFILE_FILENAME
    if not path.exists():
        raise ConfigError(
            f"no {PROFILE_FILENAME} in {path.parent}; run calibrate or pass --tau"
        )
    return DriftProfile.from_json(path.read_text(encoding="utf-8"))


def _decode(weights, config: RunConfig):
    """(tokens, trace, profile) of the run's decode; no profile in full mode."""
    mode = config.reuse.mode
    profile = _resolve_profile(config) if mode != "full" else None
    tokens, trace = diffusion_generate(
        weights, config.sampler, profile, mode,
        skip_first_layers=config.reuse.skip_first_layers,
        refresh_interval=config.reuse.refresh_interval,
    )
    return tokens, trace, profile


# ---------------------------------------------------------------------------
# init-model
# ---------------------------------------------------------------------------

def cmd_init_model(config: RunConfig) -> int:
    weights = init_weights(config.model)
    path = Path(config.paths.weights)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    save_weights(weights, path)
    print(f"wrote {path} ({path.stat().st_size} bytes)")
    print(f"kappa_q = {condition_kappa(weights.layers[0].w_q)!r}")
    print(f"R = {weights.r_emb!r}")
    if config.model.L == 1 and config.model.H == 1:
        print(f"G = {lipschitz_G(weights)!r}")
    _write_sidecar(config, "init-model", weights=str(path))
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _calibration_trace(weights, sampler: SamplerConfig,
                       prompts: int = CALIBRATION_PROMPTS):
    """One trace of full-mode generations from seeded random-token
    prompts; its ``q_trajectories`` run prompt by prompt.

    Each prompt freezes random tokens over the first half of the sequence
    so calibration sees non-degenerate contexts; the model has no tokenizer,
    so random token strings are the calibration corpus. Each token is
    drawn from the n_vocab - 1 ids other than the weights' mask id (a draw
    at or above it moves up by one), so the prompts share one prefix
    length and never hold the mask id: every block masks as many
    positions in each, and one ``diffusion_generate`` call decodes them
    all in lockstep, each from its own seed.
    """
    cfg = weights.config
    prompt = np.full((prompts, sampler.gen_length), weights.mask_token,
                     dtype=np.int64)
    prefix = sampler.gen_length // 2
    seeds = []
    for k in range(prompts):
        rng = np.random.default_rng([sampler.seed, k])
        if prefix:
            ids = rng.integers(0, cfg.n_vocab - 1, prefix)
            prompt[k, :prefix] = ids + (ids >= weights.mask_token)
        seeds.append(int(rng.integers(2 ** 31)))
    _, trace = diffusion_generate(weights, sampler, None, "full",
                                  initial_tokens=prompt, seeds=seeds)
    return trace


def _calibration_scores(weights, sampler: SamplerConfig,
                        prompts: int = CALIBRATION_PROMPTS):
    """Scoring step of calibration: every (step, token) pair of the
    calibration runs scored once.

    Returns ``layerwise_drift``'s (s_layer, skipped_pairs, layer_scores);
    every reuse budget is then fitted from these by ``_budget_profile``.
    """
    trace = _calibration_trace(weights, sampler, prompts)
    return layerwise_drift(trace.q_trajectories())


def _budget_profile(s_layer, skipped: int, layer_scores, phi_bar: float,
                    epsilon: float) -> DriftProfile:
    """Allocation and thresholds for one global budget phi_bar."""
    phi = allocate_quantiles(s_layer, phi_bar, epsilon)
    tau = tuple(quantile_threshold(scores, float(p))
                for scores, p in zip(layer_scores, phi))
    return DriftProfile(
        s_layer=tuple(float(s) for s in s_layer),
        phi_layer=tuple(float(p) for p in phi),
        tau_layer=tau,
        phi_bar=phi_bar,
        epsilon=epsilon,
        skipped_pairs=skipped,
    )


def cmd_calibrate(config: RunConfig, prompts: int = CALIBRATION_PROMPTS) -> int:
    if prompts < 1:
        raise ConfigError(f"--prompts must be >= 1, got {prompts}")
    weights = _load_run_weights(config)
    s_layer, skipped, layer_scores = _calibration_scores(
        weights, config.sampler, prompts)
    profile = _budget_profile(s_layer, skipped, layer_scores,
                              config.drift.phi_bar, config.drift.epsilon)
    out = _output_dir(config)
    (out / PROFILE_FILENAME).write_text(profile.to_json() + "\n",
                                        encoding="utf-8")
    scores_payload = {
        "layer_scores": [[float(s) for s in scores] for scores in layer_scores],
        "skipped_pairs": profile.skipped_pairs,
        "prompts": prompts,
    }
    (out / SCORES_FILENAME).write_text(
        json.dumps(scores_payload, sort_keys=True) + "\n", encoding="utf-8")
    for ell in range(profile.L):
        tau = profile.tau_layer[ell]
        print(f"layer {ell}: s = {profile.s_layer[ell]:.6f}, "
              f"phi = {profile.phi_layer[ell]:.6f}, "
              f"tau = {'disabled' if tau is None else repr(tau)}")
    print(f"wrote {out / PROFILE_FILENAME}")
    _write_sidecar(config, "calibrate", prompts=prompts)
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(config: RunConfig) -> int:
    weights = _load_run_weights(config)
    mode = config.reuse.mode
    tokens, trace, _ = _decode(weights, config)
    out = _output_dir(config)
    (out / "tokens.json").write_text(
        json.dumps([int(t) for t in tokens]) + "\n", encoding="utf-8")
    with open(out / "trace.jsonl", "w", encoding="utf-8") as fh:
        for record in trace.jsonl_records():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    accounting = reuse_accounting(trace.decisions_flat(), weights.config.B)
    full, actual, saved = flops_for_trace(trace, config.model, mode)
    summary = {
        "mode": mode,
        "full_flops": full,
        "actual_flops": actual,
        "saved_flop_fraction": saved,
    }
    summary.update(accounting)
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"tokens -> {out / 'tokens.json'}")
    print(f"reuse_fraction = {accounting['reuse_fraction']!r}")
    print(f"saved_flop_fraction = {saved!r}")
    _write_sidecar(config, "generate")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(config: RunConfig, trials: int,
               debug_zero_bounds: bool = False) -> int:
    weights = _load_run_weights(config)
    mode = config.reuse.mode
    if mode == "full":
        raise ConfigError("verify checks a reuse mode; pass --mode kv or o")
    profile = _resolve_profile(config)
    report = verify_run(
        weights, config.sampler, profile, mode, trials,
        skip_first_layers=config.reuse.skip_first_layers,
        refresh_interval=config.reuse.refresh_interval,
        debug_zero_bounds=debug_zero_bounds,
    )
    out = _output_dir(config)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    rows = [
        (r["step"], repr(r["step_bound"]), repr(r["step_empirical"]),
         repr(r["cumulative_bound"]), repr(r["cumulative_empirical"]))
        for r in report.per_step_rows()
    ]
    write_csv_with_metadata(
        out / "verify_steps.csv",
        {"kind": "verify_steps", "mode": mode, "trials": trials,
         "violations": report.violations},
        ("step", "step_bound", "step_empirical",
         "cumulative_bound", "cumulative_empirical"),
        rows,
    )
    print(f"G = {report.G!r}")
    print(f"violations = {report.violations}")
    _write_sidecar(config, "verify", trials=trials,
                   debug_zero_bounds=debug_zero_bounds)
    return 0 if report.violations == 0 else 1


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(config: RunConfig, trace_path=None) -> int:
    weights = _load_run_weights(config)
    mode = config.reuse.mode
    tokens, trace, profile = _decode(weights, config)
    if trace_path is not None:
        fresh = [json.dumps(r, sort_keys=True) for r in trace.jsonl_records()]
        stored = Path(trace_path).read_text(encoding="utf-8").splitlines()
        if fresh != stored:
            raise ConfigError(
                f"trace {trace_path} does not match this configuration"
            )
    out = _output_dir(config)
    written = []
    L = weights.config.L
    block0 = trace.q_trajectories()[0]
    for ell in range(L):
        if len(block0) >= 2:
            sim = temporal_similarity([step[ell] for step in block0])
            path = out / f"temporal_sim_layer{ell}.csv"
            similarity_csv(sim, path, layer=ell, mode=mode)
            written.append(path)
        scores, skipped = drift_scores_for_layer(trace, ell)
        tau = profile.tau_layer[ell] if profile is not None else None
        hist = histogram_from_scores(scores, ell, tau=tau,
                                     skipped_rows=skipped)
        path = out / f"drift_hist_layer{ell}.csv"
        histogram_csv(hist, path, mode=mode)
        written.append(path)
    if L >= 2:
        x = embed_tokens(weights, tokens[-weights.config.B:])
        _, state = forward_full(weights, x)
        sim = cross_layer_similarity(state.prev_v)
        path = out / "value_layer_sim.csv"
        similarity_csv(sim, path, mode=mode)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    _write_sidecar(config, "analyze", artifacts=[str(p) for p in written])
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(config: RunConfig, phi_grid) -> int:
    weights = _load_run_weights(config)
    mode = config.reuse.mode
    if mode == "full":
        raise ConfigError("bench sweeps a reuse mode; pass --mode kv or o")
    if not phi_grid:
        raise ConfigError("bench needs a non-empty phi grid")
    for phi_bar in phi_grid:
        if not 0.0 <= phi_bar <= 1.0:
            raise ConfigError(f"phi grid values must lie in [0, 1], got {phi_bar}")
    cfg = weights.config

    # One calibration pass and one frozen reference trajectory feed every
    # grid point; per-point numbers then differ only through tau.
    calibration = _calibration_scores(weights, config.sampler)
    _, reference = diffusion_generate(weights, config.sampler, None, "full")
    block_scores = [[None] + trajectory_drifts(t)
                    for t in reference.q_trajectories()]
    layer_steps = len(reference.decisions_flat())
    cost = CostModel.from_config(config.model)

    profiles = [_budget_profile(*calibration, phi_bar, config.drift.epsilon)
                for phi_bar in phi_grid]
    # The whole grid is one lockstep stack of coupled trials, one per
    # budget, each at the run's seed under its own profile: every trial has
    # the bits of its budget's one-trial run.
    run = coupled_generate(
        weights, mode, [(config.sampler.seed, p) for p in profiles],
        config.sampler.steps_per_block,
        skip_first_layers=config.reuse.skip_first_layers,
        refresh_interval=config.reuse.refresh_interval)
    rows = []
    for phi_bar, profile, l1_gap in zip(phi_grid, profiles,
                                        run.per_step_l1_gap):
        total_reused = 0
        eligible = 0
        for scores in block_scores:
            reused, slots = replay_reuse(
                scores, profile.tau_layer, config.reuse.skip_first_layers,
                config.reuse.refresh_interval)
            total_reused += reused
            eligible += slots
        _, _, saved_fraction = cost.ledger(mode, layer_steps, total_reused)
        rows.append((repr(float(phi_bar)),
                     repr(reuse_fraction(total_reused, eligible, cfg.B)),
                     repr(saved_fraction), repr(float(l1_gap.mean()))))

    out = _output_dir(config)
    write_csv_with_metadata(
        out / "bench.csv",
        {"kind": "bench", "mode": mode, "epsilon": config.drift.epsilon,
         "layer_steps": layer_steps, "grid": [float(p) for p in phi_grid]},
        ("phi_bar", "reuse_fraction", "saved_flop_fraction",
         "mean_coupled_error"),
        rows,
    )
    for row in rows:
        print(", ".join(row))
    print(f"wrote {out / 'bench.csv'}")
    _write_sidecar(config, "bench", grid=[float(p) for p in phi_grid])
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# Every common flag as (flag, RunConfig section, field, type, help). A
# flag given replaces that one field of the run the --config file sets.
_FLAGS = (
    ("--weights", "paths", "weights", str, "weight file path override"),
    ("--output-dir", "paths", "output_dir", str, "output directory override"),
    ("--phi-bar", "drift", "phi_bar", float, "global reuse budget"),
    ("--epsilon", "drift", "epsilon", float, "allocation softmax temperature"),
    ("--mode", "reuse", "mode", str, "reuse mode"),
    ("--tau", "drift", "tau_override", float,
     "flat threshold override (skips calibration)"),
    ("--skip-layers", "reuse", "skip_first_layers", int,
     "layers exempt from reuse, from the bottom"),
    ("--refresh-interval", "reuse", "refresh_interval", int,
     "force a full refresh every this many steps"),
    ("--seed", "sampler", "seed", int, "sampler seed override"),
    ("--steps", "sampler", "steps_per_block", int, "denoising steps per block"),
    ("--gen-length", "sampler", "gen_length", int, "total tokens to decode"),
)


def build_parser() -> argparse.ArgumentParser:
    # The common flags are built once, in a parent every subcommand copies.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration file")
    for flag, _, _, kind, help_text in _FLAGS:
        common.add_argument(flag, type=kind, help=help_text,
                            choices=MODES if flag == "--mode" else None)
    parser = argparse.ArgumentParser(
        prog="reuselab",
        description="Desk-scale laboratory for activation reuse in "
                    "masked-diffusion decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init-model", parents=[common],
                   help="create and save model weights")

    p = sub.add_parser("calibrate", parents=[common],
                       help="fit per-layer reuse thresholds")
    p.add_argument("--prompts", type=int, default=CALIBRATION_PROMPTS,
                   help="number of calibration generations")

    sub.add_parser("generate", parents=[common],
                   help="decode tokens, with or without reuse")

    p = sub.add_parser("verify", parents=[common],
                       help="check the reuse error bounds")
    p.add_argument("--trials", type=int, default=50,
                   help="coupled runs to average")
    p.add_argument("--debug-zero-bounds", action="store_true",
                   help="zero every bound (harness self-test; lossy runs "
                        "must then fail)")

    p = sub.add_parser("analyze", parents=[common],
                       help="similarity and drift artifacts")
    p.add_argument("--trace", help="previously written trace.jsonl to "
                                   "cross-check against")

    p = sub.add_parser("bench", parents=[common],
                       help="sweep the reuse budget phi_bar")
    p.add_argument("--phi-grid", default="0.0,0.25,0.5,0.75,1.0",
                   help="comma-separated phi_bar values")
    return parser


def build_config(args) -> RunConfig:
    """The run a command line describes: the --config file (or the run
    defaults) with every common flag given applied on top."""
    data = (json.loads(Path(args.config).read_text(encoding="utf-8"))
            if args.config else {})
    flags = {}
    for flag, section, field, _, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            flags.setdefault(section, {})[field] = value
    return RunConfig.from_dict(data).merged(flags)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "init-model":
            return cmd_init_model(config)
        if args.command == "calibrate":
            return cmd_calibrate(config, prompts=args.prompts)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "verify":
            return cmd_verify(config, trials=args.trials,
                              debug_zero_bounds=args.debug_zero_bounds)
        if args.command == "analyze":
            return cmd_analyze(config, trace_path=args.trace)
        if args.command == "bench":
            grid = [float(p) for p in args.phi_grid.split(",") if p.strip()]
            return cmd_bench(config, grid)
        raise ConfigError(f"unknown command {args.command!r}")
    # ValueError covers the errors taxonomy and malformed JSON.
    except (ValueError, StateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
