"""Toy bi-directional masked-diffusion transformer.

Single block of B tokens, L layers, H heads, no positional encoding and no
residual connections:

    Q = X W_Q,  K = X W_K,  V = X W_V
    A = Softmax(Q K^T / sqrt(d_head))      (per head)
    O = (A V) W_O
    H = sigma(O W_U) W_D
    p_i = Softmax(h_i E^T)

The input X is the row-normalized embedding of the current token string
(every row has norm sqrt(d); rows are gathered from a table normalized once
per model); for L > 1 the hidden output of each layer feeds the next one
unchanged and the last layer's H produces the logits.

This module holds the configuration, the weights and the per-layer
building blocks (``attention_rows``, ``mlp``, ``unembed``); the forward
pass that chains them, with or without reuse, is ``reuse.model_step``
(``reuse.forward_full`` for a reuse-free pass).

Weights are persisted in a small self-describing binary format, see
``save_weights`` / ``load_weights``.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass
from numbers import Integral

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
)
from .linalg import norm_2_to_inf, normalize_rows_sqrt_d, softmax_rows

WEIGHT_MAGIC = b"DARE"
WEIGHT_VERSION = 1

# Lipschitz constants of the supported activations. The GELU value is a
# documented conservative constant (the true maximum derivative is ~1.1289).
G_SIGMA = {"relu": 1.0, "gelu": 1.13}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters of the toy model."""

    L: int = 1
    H: int = 1
    d: int = 8
    d_int: int = 16
    n_vocab: int = 32
    B: int = 4
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("L", "H", "d", "d_int", "n_vocab", "B", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"ModelConfig.{name}={value!r} is not an int")
        if self.seed < 0:
            raise ConfigError(f"ModelConfig.seed must be >= 0, got {self.seed}")
        for name in ("L", "H", "d", "d_int", "n_vocab", "B"):
            if getattr(self, name) < 1:
                raise DimensionError(f"ModelConfig.{name} must be >= 1")
        if self.n_vocab < 2:
            raise DimensionError("n_vocab must be >= 2")
        if self.d % self.H != 0:
            raise DimensionError(f"d={self.d} not divisible by H={self.H}")
        if self.activation not in G_SIGMA:
            raise DimensionError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class LayerWeights:
    """Per-layer parameter matrices (all float64 ndarrays), made read-only
    on construction, so that what is computed from them once per model
    stays true."""

    w_q: np.ndarray  # d x d
    w_k: np.ndarray  # d x d
    w_v: np.ndarray  # d x d
    w_o: np.ndarray  # d x d
    w_u: np.ndarray  # d x d_int
    w_d: np.ndarray  # d_int x d

    def __post_init__(self) -> None:
        for _, a in self.named():
            a.flags.writeable = False

    def named(self):
        return (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v),
                ("w_o", self.w_o), ("w_u", self.w_u), ("w_d", self.w_d))


@dataclass(frozen=True)
class ModelWeights:
    """Full parameter set: per-layer matrices plus the shared embedding.

    ``emb`` is made read-only on construction, as the layers' matrices
    are, so the per-model caches (``r_emb`` and ``_input_table`` here and
    the bound constants of ``theory``) need no check that the arrays are
    unchanged.
    """

    config: ModelConfig
    layers: tuple[LayerWeights, ...]
    emb: np.ndarray  # n_vocab x d
    mask_token: int

    def __post_init__(self) -> None:
        self.emb.flags.writeable = False

    @functools.cached_property
    def r_emb(self) -> float:
        """The maximum Euclidean row norm of ``emb``, so every raw
        embedding row has norm <= r_emb; after ``init_weights`` it is 1."""
        return norm_2_to_inf(self.emb)

    @functools.cached_property
    def _input_table(self):
        """(table, zero rows): ``emb`` with every row normalized to norm
        sqrt(d), read-only, and the indices of its exactly-zero rows, which
        ``embed_tokens`` refuses. Normalization works row by row, so a
        gathered row has the bits of normalizing that row alone."""
        zero_rows = np.flatnonzero(~self.emb.any(axis=1))
        rows = self.emb
        if zero_rows.size:
            rows = rows.copy()
            rows[zero_rows] = 1.0  # placeholder; never handed out
        table = normalize_rows_sqrt_d(rows)
        table.flags.writeable = False
        return table, zero_rows


@functools.cache
def activation_fn(kind: str):
    """The activation function of one kind, built once. scipy is imported
    only for GELU, so ReLU models never pay for it.

    Raises:
        ConfigError: for GELU when scipy (the 'gelu' extra) is missing.
    """
    if kind == "relu":
        return lambda a: np.maximum(a, 0.0)
    if kind == "gelu":
        try:
            from scipy.special import erf
        except ImportError as exc:
            raise ConfigError(
                "GELU models need scipy: install the package's 'gelu' extra "
                "(pip install -e '.[gelu]')") from exc
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        return lambda a: a * 0.5 * (1.0 + erf(a * inv_sqrt2))
    raise DimensionError(f"unknown activation {kind!r}")


def init_weights(config: ModelConfig) -> ModelWeights:
    """Draw all parameters i.i.d. Gaussian(0, 1/sqrt(d)) from the seeded
    stream, then rescale the embedding table so its max row norm is 1.

    Deterministic given ``config.seed``: the draw order is, per layer,
    W_Q, W_K, W_V, W_O, W_U, W_D, followed by E.
    """
    rng = np.random.default_rng(config.seed)
    std = 1.0 / math.sqrt(config.d)
    d, d_int = config.d, config.d_int
    layers = []
    for _ in range(config.L):
        layers.append(LayerWeights(
            w_q=rng.normal(0.0, std, (d, d)),
            w_k=rng.normal(0.0, std, (d, d)),
            w_v=rng.normal(0.0, std, (d, d)),
            w_o=rng.normal(0.0, std, (d, d)),
            w_u=rng.normal(0.0, std, (d, d_int)),
            w_d=rng.normal(0.0, std, (d_int, d)),
        ))
    emb = rng.normal(0.0, std, (config.n_vocab, d))
    # Rescale so the max row norm is exactly 1; a single division can land
    # one ulp off, so nudge until the recomputed norm fixes at 1.0.
    for _ in range(8):
        top = norm_2_to_inf(emb)
        if top == 1.0:
            break
        emb = emb / top
    return ModelWeights(
        config=config,
        layers=tuple(layers),
        emb=emb,
        mask_token=config.n_vocab - 1,
    )


def embed_tokens(weights: ModelWeights, tokens) -> np.ndarray:
    """Map token indices to the row-normalized input matrix X (B x d).

    Every output row has Euclidean norm sqrt(d). Masked positions simply
    carry the mask token's index.

    Raises:
        DegenerateInputError: if an index is out of range or names an
            exactly-zero embedding row.
    """
    idx = np.asarray(tokens, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("tokens must be a 1-D index sequence")
    n_vocab = weights.config.n_vocab
    if idx.size and (idx.min() < 0 or idx.max() >= n_vocab):
        raise DegenerateInputError(
            f"token index out of range [0, {n_vocab})"
        )
    return embed_ids(weights, idx)


def embed_ids(weights: ModelWeights, idx: np.ndarray) -> np.ndarray:
    """``embed_tokens`` without its shape and range checks, for a 1-D int64
    array of ids the caller validated or sampled from [0, n_vocab).

    Raises:
        DegenerateInputError: if an id names an exactly-zero embedding row.
    """
    table, zero_rows = weights._input_table
    if zero_rows.size and np.isin(idx, zero_rows).any():
        raise DegenerateInputError("cannot normalize a zero row")
    return table[idx]


def block_matmul(blocks: int):
    """The product ``x @ w`` for a stack of ``blocks`` equal blocks of
    rows, as one product per block: ``np.matmul`` itself for one block.

    A stack goes through a 3-D product, for which numpy makes one BLAS call
    per block at that block's own shape, so every block's rows have the
    bits of the block's own 2-D product. One flat product over all rows
    would not keep them: BLAS splits a larger product differently.
    """
    if blocks == 1:
        return np.matmul

    def per_block(x, w):
        return (x.reshape(blocks, -1, x.shape[1]) @ w).reshape(
            len(x), w.shape[1])
    return per_block


def attention_rows(q_rows: np.ndarray, k: np.ndarray, v: np.ndarray,
                   n_heads: int, blocks: int = 1) -> np.ndarray:
    """Pre-W_O attention output for the given query rows against a full
    key/value set.

    The arguments may stack ``blocks`` blocks, each block's query rows and
    each block's keys and values in turn; a block's queries attend to its
    own keys and values only.

    One head of one block is plain 2-D products. Anything more goes
    through one stacked product over (block, head) pairs: the heads are
    strided views of the same columns a per-head slice would take, so
    every pair's product is the same BLAS call on the same memory layout,
    and each output is written straight into its columns of the result
    through a strided ``out=`` view, which BLAS addresses like a
    contiguous block. ``softmax_rows`` runs in place on the scores, which
    this function allocated. The result is bitwise the per-block, per-head
    computation, and no argument is written to.
    """
    n, d = q_rows.shape
    dh = d // n_heads
    out = np.empty((n, d))
    if blocks == 1 and n_heads == 1:
        q, k_t, v_h, out_h = q_rows, k.T, v, out
    elif blocks == 1:
        q = q_rows.reshape(n, n_heads, dh).transpose(1, 0, 2)  # H x n x dh
        k_t = k.reshape(-1, n_heads, dh).transpose(1, 2, 0)    # H x dh x B
        v_h = v.reshape(-1, n_heads, dh).transpose(1, 0, 2)    # H x B x dh
        out_h = out.reshape(n, n_heads, dh).transpose(1, 0, 2)  # H x n x dh
    else:
        # blocks x H x rows x dh, and blocks x H x dh x B for the keys
        q, v_h, out_h = (
            a.reshape(blocks, -1, n_heads, dh).transpose(0, 2, 1, 3)
            for a in (q_rows, v, out))
        k_t = k.reshape(blocks, -1, n_heads, dh).transpose(0, 2, 3, 1)
    scores = q @ k_t
    scores /= math.sqrt(dh)
    np.matmul(softmax_rows(scores, out=scores), v_h, out=out_h)
    return out


def mlp(lw: LayerWeights, o: np.ndarray, activation: str,
        matmul=np.matmul) -> np.ndarray:
    """The MLP of one layer; ``matmul`` is a ``block_matmul`` product for
    a stack of blocks."""
    return matmul(activation_fn(activation)(matmul(o, lw.w_u)), lw.w_d)


def unembed(weights: ModelWeights, h: np.ndarray,
            matmul=np.matmul) -> np.ndarray:
    """Per-token next-token distributions from the last hidden state;
    ``matmul`` is a ``block_matmul`` product for a stack of blocks."""
    return softmax_rows(matmul(h, weights.emb.T))


# ---------------------------------------------------------------------------
# weight file format
# ---------------------------------------------------------------------------
#
# magic "DARE" | u32 version | u32 header length | UTF-8 JSON header | payload
#
# The header carries the ModelConfig, mask token, r_emb, and a tensor
# manifest (name, rows, cols, offset); offsets are byte positions relative
# to the start of the payload, and the payload is the raw little-endian
# float64 tensor data in manifest order. r_emb is derived from the
# embedding; the header's copy must match it.


def _tensor_items(weights: ModelWeights):
    for i, lw in enumerate(weights.layers):
        for name, a in lw.named():
            yield f"layers.{i}.{name}", a
    yield "emb", weights.emb


def save_weights(weights: ModelWeights, path) -> None:
    manifest = []
    offset = 0
    blobs = []
    for name, a in _tensor_items(weights):
        blob = np.ascontiguousarray(a, dtype="<f8").tobytes()
        manifest.append({
            "name": name, "rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "offset": offset,
        })
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({
        "config": asdict(weights.config),
        "mask_token": weights.mask_token,
        "r_emb": weights.r_emb,
        "tensors": manifest,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(WEIGHT_MAGIC)
        f.write(struct.pack("<II", WEIGHT_VERSION, len(header)))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def _tensor_shapes(config: ModelConfig) -> dict:
    """The (rows, cols) every tensor of a weight file must have."""
    d, d_int = config.d, config.d_int
    shapes = {"emb": (config.n_vocab, d)}
    for i in range(config.L):
        shapes.update({
            f"layers.{i}.w_q": (d, d), f"layers.{i}.w_k": (d, d),
            f"layers.{i}.w_v": (d, d), f"layers.{i}.w_o": (d, d),
            f"layers.{i}.w_u": (d, d_int), f"layers.{i}.w_d": (d_int, d),
        })
    return shapes


def load_weights(path) -> ModelWeights:
    """Read a weight file written by ``save_weights``.

    Raises:
        FormatError: if the file is not a complete, well-formed weight file
            for the model its header describes (bad magic or version, a
            short or corrupt header, an invalid config, a missing, repeated
            or misshapen tensor, a tensor that does not start where the one
            before it ends, bytes past the last tensor, a non-finite
            weight, a bad mask token, or an r_emb other than the loaded
            embedding's).
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != WEIGHT_MAGIC:
        raise FormatError("not a weight file (bad magic)")
    if len(raw) < 12:
        raise FormatError("weight file ends inside its preamble")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != WEIGHT_VERSION:
        raise FormatError(f"unsupported weight file version {version}")
    header_end = 12 + header_len
    try:
        header = json.loads(raw[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt weight file header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("weight file header is not a JSON object")
    missing = {"config", "mask_token", "r_emb", "tensors"} - header.keys()
    if missing:
        raise FormatError(f"weight file header lacks {sorted(missing)}")
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid model config in header: {exc}") from exc
    mask_token = header["mask_token"]
    if type(mask_token) is not int or not 0 <= mask_token < config.n_vocab:
        raise FormatError(f"mask token {mask_token!r} is not a vocabulary index")
    shapes = _tensor_shapes(config)
    payload = raw[header_end:]
    tensors = {}
    end = 0  # the manifest lays the tensors end to end, in its order
    try:
        for entry in header["tensors"]:
            name, rows, cols, off = (entry["name"], entry["rows"],
                                     entry["cols"], entry["offset"])
            want = shapes.get(name)
            if want is None:
                raise FormatError(f"unexpected tensor {name!r}")
            if (rows, cols) != want:
                raise FormatError(
                    f"tensor {name!r} is {rows}x{cols}, the config needs "
                    f"{want[0]}x{want[1]}")
            if name in tensors:
                raise FormatError(f"tensor {name!r} is listed twice")
            if type(off) is not int or off != end:
                raise FormatError(f"tensor {name!r} has offset {off!r}, "
                                  f"not {end} where the one before ends")
            end += rows * cols * 8
            if end > len(payload):
                raise FormatError(f"tensor {name!r} overruns payload")
            a = np.frombuffer(payload[off:end], dtype="<f8")
            if not np.isfinite(a).all():
                raise FormatError(f"tensor {name!r} holds a non-finite weight")
            tensors[name] = a.reshape(rows, cols).copy()
    except (TypeError, KeyError) as exc:
        raise FormatError(f"malformed tensor manifest: {exc!r}") from exc
    missing = sorted(shapes.keys() - tensors.keys())
    if missing:
        raise FormatError(f"missing tensors {missing}")
    if end != len(payload):
        raise FormatError(f"payload runs {len(payload) - end} bytes past "
                          "its last tensor")
    layers = tuple(
        LayerWeights(**{name: tensors[f"layers.{i}.{name}"]
                        for name in ("w_q", "w_k", "w_v", "w_o", "w_u", "w_d")})
        for i in range(config.L))
    weights = ModelWeights(config=config, layers=layers, emb=tensors["emb"],
                           mask_token=mask_token)
    r_emb = header["r_emb"]
    if type(r_emb) not in (int, float) or r_emb != weights.r_emb:
        raise FormatError(f"header r_emb {r_emb!r} is not the embedding's "
                          f"largest row norm {weights.r_emb!r}")
    return weights
