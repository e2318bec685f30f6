"""The benchmark's two workloads: the same three parts (decode, verify,
CLI) run on a mid-size model and on a tiny one.

On ``mid-model`` the decode arrays are large enough that the projections,
attention and the drift gate's vector work dominate, and the CLI
subcommands spend real time in their drift-scoring loops. On
``tiny-model`` every array is a few numbers wide, so fixed per-call
overhead dominates the decode, and interpreter start-up dominates the CLI.
The verify part runs the CLI default model, the only regime with
closed-form bounds, in both.
"""

from __future__ import annotations

from dataclasses import dataclass

from reuselab.model import ModelConfig

# The CLI default model (`RunConfig.default()`).
TINY_MODEL = ModelConfig(L=1, H=1, d=8, d_int=16, n_vocab=32, B=4,
                         activation="relu", seed=1)


@dataclass(frozen=True)
class Workload:
    name: str
    decode_model: ModelConfig
    gen_length: int         # tokens per decode, a whole number of blocks
    steps_per_block: int
    tau: float              # flat threshold of the kv and o decodes
    cli_model: dict         # model of every CLI subcommand but verify
    cli_sampler: dict


WORKLOADS = {
    "mid-model": Workload(
        name="mid-model",
        # The ROADMAP baseline size; two blocks. At tau 0.002 reuse fires
        # on about 88% of eligible rows in kv and 98.6% in o.
        decode_model=ModelConfig(L=4, H=2, d=64, d_int=128, n_vocab=32,
                                 B=32, activation="relu", seed=1),
        gen_length=64, steps_per_block=32, tau=0.002,
        cli_model={"L": 4, "H": 2, "d": 32, "d_int": 64, "n_vocab": 32,
                   "B": 16, "activation": "relu", "seed": 1},
        cli_sampler={"gen_length": 32, "block_size": 16,
                     "steps_per_block": 16, "tokens_unmasked_per_step": 1,
                     "temperature": 1.0, "seed": 11}),
    "tiny-model": Workload(
        name="tiny-model",
        # Eight blocks of 4; at tau 0.05 reuse fires on about 75% of
        # eligible rows in kv and in o.
        decode_model=TINY_MODEL,
        gen_length=32, steps_per_block=4, tau=0.05,
        cli_model={"L": 1, "H": 1, "d": 8, "d_int": 16, "n_vocab": 32,
                   "B": 4, "activation": "relu", "seed": 1},
        cli_sampler={"gen_length": 32, "block_size": 4,
                     "steps_per_block": 4, "tokens_unmasked_per_step": 1,
                     "temperature": 1.0, "seed": 11}),
}
