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

Weights are persisted in a small self-describing binary format, see
``save_weights`` / ``load_weights``.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, FormatError
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
        for name in ("L", "H", "d", "d_int", "n_vocab", "B"):
            if getattr(self, name) < 1:
                raise DimensionError(f"ModelConfig.{name} must be >= 1")
        if self.n_vocab < 2:
            raise DimensionError("n_vocab must be >= 2")
        if self.d % self.H != 0:
            raise DimensionError(f"d={self.d} not divisible by H={self.H}")
        if self.activation not in G_SIGMA:
            raise DimensionError(f"unknown activation {self.activation!r}")

    @property
    def d_head(self) -> int:
        return self.d // self.H

    def to_dict(self) -> dict:
        return {
            "L": self.L, "H": self.H, "d": self.d, "d_int": self.d_int,
            "n_vocab": self.n_vocab, "B": self.B,
            "activation": self.activation, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


@dataclass(frozen=True)
class LayerWeights:
    """Per-layer parameter matrices (all float64 ndarrays)."""

    w_q: np.ndarray  # d x d
    w_k: np.ndarray  # d x d
    w_v: np.ndarray  # d x d
    w_o: np.ndarray  # d x d
    w_u: np.ndarray  # d x d_int
    w_d: np.ndarray  # d_int x d

    def named(self):
        return (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v),
                ("w_o", self.w_o), ("w_u", self.w_u), ("w_d", self.w_d))


@dataclass(frozen=True)
class ModelWeights:
    """Full parameter set: per-layer matrices plus the shared embedding.

    ``r_emb`` is the maximum Euclidean row norm of ``emb`` (so every raw
    embedding row has norm <= r_emb); after ``init_weights`` it equals 1.
    """

    config: ModelConfig
    layers: tuple[LayerWeights, ...]
    emb: np.ndarray  # n_vocab x d
    mask_token: int
    r_emb: float

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


@dataclass
class LayerActivations:
    """Intermediate activations of one layer for one step (B x d each,
    except h which is the MLP output feeding the next layer / logits).

    ``o_pre`` is the attention output before the W_O projection; ``o`` is
    after it.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o_pre: np.ndarray
    o: np.ndarray
    h: np.ndarray
    n_heads: int = 1

    def head_view(self, a: np.ndarray, head: int) -> np.ndarray:
        """Columns of ``a`` belonging to one attention head."""
        dh = a.shape[1] // self.n_heads
        return a[:, head * dh:(head + 1) * dh]


@functools.cache
def activation_fn(kind: str):
    """The activation function of one kind, built once. scipy is imported
    only for GELU, so ReLU models never pay for it."""
    if kind == "relu":
        return lambda a: np.maximum(a, 0.0)
    if kind == "gelu":
        from scipy.special import erf
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
        r_emb=norm_2_to_inf(emb),
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
    table, zero_rows = weights._input_table
    if zero_rows.size and np.isin(idx, zero_rows).any():
        raise DegenerateInputError("cannot normalize a zero row")
    return table[idx]


def attention_rows(q_rows: np.ndarray, k: np.ndarray, v: np.ndarray,
                   n_heads: int) -> np.ndarray:
    """Pre-W_O attention output for the given query rows against a full
    key/value set.

    All heads go through one stacked product: the heads are strided views
    of the same columns a per-head slice would take, so every head's
    product is the same BLAS call on the same memory, and the softmax
    keeps ``softmax_rows``' order of operations (max shift, exp, sum,
    divide). The result is bitwise the per-head computation.
    """
    n, d = q_rows.shape
    dh = d // n_heads
    q = q_rows.reshape(n, n_heads, dh).transpose(1, 0, 2)      # H x n x dh
    k_t = k.reshape(-1, n_heads, dh).transpose(1, 2, 0)        # H x dh x B
    v_h = v.reshape(-1, n_heads, dh).transpose(1, 0, 2)        # H x B x dh
    scores = q @ k_t
    scores /= math.sqrt(dh)
    scores -= scores.max(axis=2, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=2, keepdims=True)
    return (scores @ v_h).transpose(1, 0, 2).reshape(n, d)


def mlp(lw: LayerWeights, o: np.ndarray, activation: str) -> np.ndarray:
    return activation_fn(activation)(o @ lw.w_u) @ lw.w_d


def layer_forward_full(lw: LayerWeights, x: np.ndarray, n_heads: int,
                       activation: str) -> LayerActivations:
    """One full (reuse-free) layer evaluation."""
    q = x @ lw.w_q
    k = x @ lw.w_k
    v = x @ lw.w_v
    o_pre = attention_rows(q, k, v, n_heads)
    o = o_pre @ lw.w_o
    h = mlp(lw, o, activation)
    return LayerActivations(q=q, k=k, v=v, o_pre=o_pre, o=o, h=h,
                            n_heads=n_heads)


def unembed(weights: ModelWeights, h: np.ndarray) -> np.ndarray:
    """Per-token next-token distributions from the last hidden state."""
    return softmax_rows(h @ weights.emb.T)


def _check_forward_input(config: ModelConfig, x: np.ndarray) -> None:
    if x.shape != (config.B, config.d):
        raise DimensionError(
            f"input shape {x.shape} != ({config.B}, {config.d})"
        )
    target = math.sqrt(config.d)
    norms = np.linalg.norm(x, axis=1)
    if not np.allclose(norms, target, rtol=1e-9, atol=1e-9):
        raise DegenerateInputError(
            "input rows must be normalized to norm sqrt(d)"
        )


def forward_full(weights: ModelWeights, x: np.ndarray):
    """Full forward pass without any activation reuse.

    Args:
        weights: model parameters.
        x: B x d input with rows normalized to norm sqrt(d).

    Returns:
        (probs, acts): probs is B x n_vocab with rows summing to 1; acts is
        the per-layer list of LayerActivations.
    """
    config = weights.config
    _check_forward_input(config, x)
    acts = []
    cur = x
    for lw in weights.layers:
        la = layer_forward_full(lw, cur, config.H, config.activation)
        acts.append(la)
        cur = la.h
    return unembed(weights, cur), acts


# ---------------------------------------------------------------------------
# weight file format
# ---------------------------------------------------------------------------
#
# magic "DARE" | u32 version | u32 header length | UTF-8 JSON header | payload
#
# The header carries the ModelConfig, mask token, r_emb, and a tensor
# manifest (name, rows, cols, offset); offsets are byte positions relative
# to the start of the payload, and the payload is the raw little-endian
# float64 tensor data in manifest order.


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
        "config": weights.config.to_dict(),
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


def load_weights(path) -> ModelWeights:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != WEIGHT_MAGIC:
        raise FormatError("not a weight file (bad magic)")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != WEIGHT_VERSION:
        raise FormatError(f"unsupported weight file version {version}")
    header_end = 12 + header_len
    try:
        header = json.loads(raw[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt weight file header: {exc}") from exc
    config = ModelConfig.from_dict(header["config"])
    payload = raw[header_end:]
    tensors = {}
    for entry in header["tensors"]:
        rows, cols, off = entry["rows"], entry["cols"], entry["offset"]
        nbytes = rows * cols * 8
        if off + nbytes > len(payload):
            raise FormatError(f"tensor {entry['name']!r} overruns payload")
        a = np.frombuffer(payload[off:off + nbytes], dtype="<f8")
        tensors[entry["name"]] = a.reshape(rows, cols).copy()
    layers = []
    for i in range(config.L):
        try:
            layers.append(LayerWeights(**{
                name: tensors[f"layers.{i}.{name}"]
                for name in ("w_q", "w_k", "w_v", "w_o", "w_u", "w_d")
            }))
        except KeyError as exc:
            raise FormatError(f"missing tensor for layer {i}: {exc}") from exc
    if "emb" not in tensors:
        raise FormatError("missing embedding tensor")
    return ModelWeights(
        config=config,
        layers=tuple(layers),
        emb=tensors["emb"],
        mask_token=header["mask_token"],
        r_emb=header["r_emb"],
    )
