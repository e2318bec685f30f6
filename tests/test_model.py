"""Tests for the toy transformer.

forward_full is checked against a fully scalar pure-Python reimplementation
(lists + math.exp) so the oracle shares nothing with the numpy code path.
"""

import dataclasses
import hashlib
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reuselab.errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
)
from reuselab.linalg import (
    condition_kappa,
    norm_2_to_inf,
    normalize_rows_sqrt_d,
    softmax_rows,
)
from reuselab.model import (
    ModelConfig,
    ModelWeights,
    activation_fn,
    attention_rows,
    embed_tokens,
    init_weights,
    load_weights,
    save_weights,
)
from reuselab.reuse import forward_full

# Frozen once from condition_kappa on the generated W_Q; guards the RNG
# draw order as much as the linalg stack.
KAPPA_WQ_D8_SEED1 = 28.219176614993213


def scalar_forward(weights, x, layers=None):
    """Step-by-step scalar-loop forward pass (no numpy arithmetic).

    When ``layers`` is a list, each layer's q, k, v and o_pre are appended
    to it as a dict of nested lists.
    """
    cfg = weights.config

    def mat(a):
        return [[float(v) for v in row] for row in a]

    def mm(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    def softmax_row(r):
        mx = max(r)
        es = [math.exp(v - mx) for v in r]
        s = sum(es)
        return [e / s for e in es]

    def act(u):
        if cfg.activation == "relu":
            return max(u, 0.0)
        return u * 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))

    cur = mat(x)
    n = len(cur)
    dh = cfg.d // cfg.H
    for lw in weights.layers:
        q = mm(cur, mat(lw.w_q))
        k = mm(cur, mat(lw.w_k))
        v = mm(cur, mat(lw.w_v))
        o_pre = [[0.0] * cfg.d for _ in range(n)]
        for h in range(cfg.H):
            lo = h * dh
            for i in range(n):
                scores = [
                    sum(q[i][lo + t] * k[j][lo + t] for t in range(dh))
                    / math.sqrt(dh)
                    for j in range(n)
                ]
                attn = softmax_row(scores)
                for t in range(dh):
                    o_pre[i][lo + t] = sum(
                        attn[j] * v[j][lo + t] for j in range(n))
        if layers is not None:
            layers.append({"q": q, "k": k, "v": v, "o_pre": o_pre})
        o = mm(o_pre, mat(lw.w_o))
        hidden = [[act(u) for u in row] for row in mm(o, mat(lw.w_u))]
        cur = mm(hidden, mat(lw.w_d))
    emb_t = [list(col) for col in zip(*mat(weights.emb))]
    return np.array([softmax_row(r) for r in mm(cur, emb_t)])


def small_config(**kw):
    base = dict(L=1, H=1, d=4, d_int=8, n_vocab=12, B=3,
                activation="relu", seed=3)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# config and init
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(DimensionError):
        ModelConfig(d=6, H=4)
    with pytest.raises(DimensionError):
        ModelConfig(L=0)
    with pytest.raises(DimensionError):
        ModelConfig(n_vocab=1)
    with pytest.raises(DimensionError):
        ModelConfig(activation="swish")


def test_init_deterministic_and_seed_sensitive():
    cfg = small_config()
    w1 = init_weights(cfg)
    w2 = init_weights(cfg)
    assert np.array_equal(w1.layers[0].w_q, w2.layers[0].w_q)
    assert np.array_equal(w1.emb, w2.emb)
    w3 = init_weights(small_config(seed=4))
    assert not np.array_equal(w1.layers[0].w_q, w3.layers[0].w_q)


def test_init_embedding_row_norm_is_one():
    w = init_weights(small_config())
    norms = np.linalg.norm(w.emb, axis=1)
    assert w.r_emb == 1.0
    assert norms.max() == 1.0
    assert w.mask_token == w.config.n_vocab - 1


def test_init_kappa_wq_fixture():
    cfg = ModelConfig(L=1, H=1, d=8, d_int=16, n_vocab=32, B=4,
                      activation="relu", seed=1)
    w = init_weights(cfg)
    kappa = condition_kappa(w.layers[0].w_q)
    assert kappa > 1.0
    assert math.isfinite(kappa)
    assert abs(kappa - KAPPA_WQ_D8_SEED1) < 1e-6


# ---------------------------------------------------------------------------
# embed_tokens
# ---------------------------------------------------------------------------

def test_embed_tokens_norms_and_duplicates():
    w = init_weights(small_config())
    x = embed_tokens(w, [2, 2, 5])
    assert x.shape == (3, 4)
    assert np.array_equal(x[0], x[1])
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 2.0)) < 1e-12


def test_embed_tokens_matches_manual_lookup():
    w = init_weights(small_config())
    token = 7
    x = embed_tokens(w, [token])
    row = w.emb[token]
    want = row * math.sqrt(w.config.d) / np.linalg.norm(row)
    assert np.max(np.abs(x[0] - want)) < 1e-15


def test_embed_tokens_rejects_out_of_range():
    w = init_weights(small_config())
    with pytest.raises(DegenerateInputError):
        embed_tokens(w, [0, 99])
    with pytest.raises(DegenerateInputError):
        embed_tokens(w, [-1])


@pytest.mark.parametrize("d, scale", [(4, 1.0), (64, 1.0), (8, 1e-170),
                                      (8, 1e170)])
def test_embed_tokens_rows_are_bitwise_row_normalization(d, scale):
    # The table is normalized once; each gathered row must have the bits
    # of normalizing just that row, including rows rescaled at the
    # float64 extremes.
    cfg = ModelConfig(d=d, d_int=8, n_vocab=16, seed=4)
    w = init_weights(cfg)
    w = dataclasses.replace(w, emb=w.emb * scale)
    idx = np.random.default_rng(d).integers(0, cfg.n_vocab, 40)
    for tokens in (idx, idx[:1], np.arange(cfg.n_vocab)):
        got = embed_tokens(w, tokens)
        want = normalize_rows_sqrt_d(w.emb[tokens])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # Callers own what they get: writing to it leaves the table alone.
    got[:] = 0.0
    assert np.array_equal(embed_tokens(w, idx), normalize_rows_sqrt_d(w.emb[idx]))


def test_embed_tokens_zero_row_fails_only_when_embedded():
    w = init_weights(small_config())
    emb = w.emb.copy()
    emb[3] = 0.0
    w = dataclasses.replace(w, emb=emb)
    x = embed_tokens(w, [0, 2, 4, 11])
    assert np.array_equal(x, normalize_rows_sqrt_d(emb[[0, 2, 4, 11]]))
    with pytest.raises(DegenerateInputError):
        embed_tokens(w, [0, 3])
    with pytest.raises(DegenerateInputError):
        embed_tokens(w, [3])


# ---------------------------------------------------------------------------
# attention_rows
# ---------------------------------------------------------------------------

def per_head_attention(q_rows, k, v, n_heads):
    """Oracle: one score product and one softmax per head."""
    d = k.shape[1]
    dh = d // n_heads
    out = np.empty((q_rows.shape[0], d))
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = (q_rows[:, cols] @ k[:, cols].T) / math.sqrt(dh)
        out[:, cols] = softmax_rows(scores) @ v[:, cols]
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 3, 8, 64]),
       st.integers(1, 40), st.data())
def test_attention_rows_matches_per_head_loop(n_heads, dh, B, data):
    # Bitwise, for the whole block and for row subsets (the o-mode call),
    # including a single query row.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0]))
    d = n_heads * dh
    x = rng.standard_normal((B, d))
    q, k, v = (x @ rng.standard_normal((d, d)) * scale for _ in range(3))
    n = data.draw(st.integers(1, B))
    rows = np.sort(rng.choice(B, n, replace=False))
    before = [a.copy() for a in (q, k, v)]
    for q_rows in (q, q[rows]):
        got = attention_rows(q_rows, k, v, n_heads)
        want = per_head_attention(q_rows, k, v, n_heads)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # No argument is written to, whatever the head count.
    for arg, copy in zip((q, k, v), before):
        assert np.array_equal(arg.view(np.int64), copy.view(np.int64))


# ---------------------------------------------------------------------------
# forward_full
# ---------------------------------------------------------------------------

def test_forward_rejects_bad_inputs():
    w = init_weights(small_config())
    with pytest.raises(DimensionError):
        forward_full(w, np.zeros((2, 4)))
    with pytest.raises(DegenerateInputError):
        forward_full(w, np.zeros((3, 4)))  # zero rows are not normalized


@pytest.mark.parametrize("row", ["nan", "zero", "off by 1e-6"])
def test_forward_rejects_a_bad_row_norm(row):
    w = init_weights(small_config())
    x = embed_tokens(w, [1, 5, 9])
    if row == "nan":
        x[1, 2] = np.nan
    elif row == "zero":
        x[1] = 0.0
    else:
        x[1] *= 1.0 + 1e-6
    with pytest.raises(DegenerateInputError):
        forward_full(w, x)


def test_forward_accepts_row_norms_within_tolerance():
    # The tolerance is 1e-9 + 1e-9 * sqrt(d) on each row norm.
    w = init_weights(small_config())
    x = embed_tokens(w, [1, 5, 9])
    x[1] *= 1.0 + 1e-10
    want, _ = forward_full(w, embed_tokens(w, [1, 5, 9]))
    got, _ = forward_full(w, x)
    assert np.allclose(got, want)


def test_forward_prob_rows_sum_to_one():
    w = init_weights(small_config())
    probs, state = forward_full(w, embed_tokens(w, [1, 5, 9]))
    assert probs.shape == (3, 12)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-10
    assert len(state.prev_k) == 1
    assert state.prev_q_head0[0].shape == (3, 4)


def test_forward_single_token_ignores_queries():
    # With one key the attention weights are (1), so O = v1 W_O whatever
    # W_Q says.
    cfg = small_config(B=1)
    w = init_weights(cfg)
    x = embed_tokens(w, [4])
    rng = np.random.default_rng(99)
    other_q = dataclasses.replace(w.layers[0],
                                  w_q=rng.standard_normal((4, 4)))
    w2 = dataclasses.replace(w, layers=(other_q,))
    probs1, state1 = forward_full(w, x)
    probs2, state2 = forward_full(w2, x)
    assert np.array_equal(state1.prev_o_pre[0], state2.prev_o_pre[0])
    assert np.array_equal(probs1, probs2)
    assert np.max(np.abs(state1.prev_o_pre[0] - state1.prev_v[0])) < 1e-15


def test_forward_matches_scalar_oracle_relu():
    w = init_weights(small_config())
    x = embed_tokens(w, [1, 5, 9])
    probs, _ = forward_full(w, x)
    want = scalar_forward(w, x)
    assert np.max(np.abs(probs - want)) < 1e-10


def test_forward_matches_scalar_oracle_gelu():
    w = init_weights(small_config(activation="gelu", seed=8))
    x = embed_tokens(w, [0, 3, 11])
    probs, _ = forward_full(w, x)
    want = scalar_forward(w, x)
    assert np.max(np.abs(probs - want)) < 1e-10


def test_forward_matches_scalar_oracle_multihead_multilayer():
    cfg = ModelConfig(L=2, H=2, d=8, d_int=6, n_vocab=16, B=3,
                      activation="relu", seed=5)
    w = init_weights(cfg)
    x = embed_tokens(w, [2, 7, 13])
    probs, state = forward_full(w, x)
    layers = []
    want = scalar_forward(w, x, layers)
    assert np.max(np.abs(probs - want)) < 1e-10
    assert len(state.prev_k) == 2
    dh = cfg.d // cfg.H
    for ell, oracle in enumerate(layers):
        q0 = np.array(oracle["q"])[:, :dh]
        assert np.max(np.abs(state.prev_q_head0[ell] - q0)) < 1e-12
        for name in ("k", "v", "o_pre"):
            got = getattr(state, f"prev_{name}")[ell]
            assert np.max(np.abs(got - np.array(oracle[name]))) < 1e-12


def test_forward_permutation_equivariance():
    w = init_weights(small_config(B=4, n_vocab=16))
    tokens = [3, 8, 1, 14]
    perm = [2, 0, 3, 1]
    p1, _ = forward_full(w, embed_tokens(w, tokens))
    p2, _ = forward_full(w, embed_tokens(w, [tokens[i] for i in perm]))
    assert np.allclose(p2, p1[perm], rtol=1e-12, atol=1e-12)


def test_multihead_reduces_to_single_head_under_uniform_attention():
    # With every head fed identical sliced weights AND identical input
    # rows, the attention weights are uniform in both paths, so the
    # concatenated head outputs reproduce the single-head computation.
    rng = np.random.default_rng(17)
    d, n = 4, 3
    half_q = rng.standard_normal((d, 2))
    half_k = rng.standard_normal((d, 2))
    half_v = rng.standard_normal((d, 2))
    shared = dict(
        w_q=np.hstack([half_q, half_q]),
        w_k=np.hstack([half_k, half_k]),
        w_v=np.hstack([half_v, half_v]),
        w_o=rng.standard_normal((d, d)),
        w_u=rng.standard_normal((d, 8)),
        w_d=rng.standard_normal((8, d)),
    )
    cfg1 = ModelConfig(L=1, H=1, d=d, d_int=8, n_vocab=10, B=n,
                       activation="relu", seed=0)
    cfg2 = dataclasses.replace(cfg1, H=2)
    base = init_weights(cfg1)
    lw = dataclasses.replace(base.layers[0], **shared)
    w_single = dataclasses.replace(base, layers=(lw,))
    w_multi = dataclasses.replace(w_single, config=cfg2)
    x = embed_tokens(base, [6, 6, 6])  # identical rows
    p1, s1 = forward_full(w_single, x)
    p2, s2 = forward_full(w_multi, x)
    assert np.allclose(s1.prev_o_pre[0], s2.prev_o_pre[0],
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(p1, p2, rtol=1e-12, atol=1e-14)


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of forward_full's probs, then of the per-layer head-0 queries, K,
# V and pre-W_O attention output, recorded from the two-pass forward that
# kept per-layer activation records; the one-pass forward_full must keep
# every bit.
FORWARD_PINS = [
    ((ModelConfig(L=2, H=2, d=8, d_int=6, n_vocab=16, B=3, seed=5),
      [2, 7, 13]),
     ("be803ac3c015d6c7e1df1812937f276946745dde3179dce43d51e682e9dc7f6d",
      "acf9f47ed91c13526b91bf96ac433d0c5de3534e612c9798a7e2feaf8f7340fa",
      "614d0200218772b00152b3a52e61e381558f6b9f11e581c4579bc1e95fd2bd55",
      "9875710d343cf55c75a869f892e6dfe317d5d3eb733764c17b309bc3d8b1b96c",
      "8727d5d03664651240e9cad0d0c4e9f7ee90460384b542d71357dac8e06b64a0")),
    ((ModelConfig(L=4, H=2, d=32, d_int=64, n_vocab=32, B=16, seed=1),
      list(range(16))),
     ("a185875a621ff1703a92bb8b8243d8069141eb44fea876bf40519c006369359f",
      "18d642e924786b236805308558dc16b35c8d2aa6bb3848e81a29946730b01518",
      "5d714de068f78694dfdac662a67029b3baf16b63faf48cddccd3d6a479a2c874",
      "390e2b84b625f7863cb82b3a5510b245b2cd6b2fd33e9ae7d54fc4a4c5105f34",
      "e7fb4a92f268abbeb6943cd03574d681b1dbbbbb195434e0e6a03d5295e2e30c")),
]


@pytest.mark.parametrize("case, pins", FORWARD_PINS, ids=["L2-H2", "L4-H2"])
def test_forward_full_is_pinned(case, pins):
    cfg, tokens = case
    w = init_weights(cfg)
    probs, state = forward_full(w, embed_tokens(w, tokens))
    got = (_sha256(probs), _sha256(*state.prev_q_head0),
           _sha256(*state.prev_k), _sha256(*state.prev_v),
           _sha256(*state.prev_o_pre))
    assert got == pins


# ---------------------------------------------------------------------------
# weight file round-trip
# ---------------------------------------------------------------------------

def test_weight_file_round_trip_bitwise(tmp_path):
    cfg = ModelConfig(L=2, H=2, d=8, d_int=6, n_vocab=16, B=3,
                      activation="gelu", seed=21)
    w = init_weights(cfg)
    path = tmp_path / "model.bin"
    save_weights(w, path)
    w2 = load_weights(path)
    assert w2.config == cfg
    assert w2.mask_token == w.mask_token
    assert w2.r_emb == w.r_emb
    assert np.array_equal(w2.emb, w.emb)
    for lw, lw2 in zip(w.layers, w2.layers):
        for (name, a), (_, b) in zip(lw.named(), lw2.named()):
            assert np.array_equal(a, b), name


def test_weight_file_magic_and_version(tmp_path):
    w = init_weights(small_config())
    path = tmp_path / "model.bin"
    save_weights(w, path)
    raw = bytearray(path.read_bytes())
    assert raw[:4] == b"DARE"

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        load_weights(bad)

    raw2 = bytearray(raw)
    raw2[4] = 9  # version field
    bad.write_bytes(bytes(raw2))
    with pytest.raises(FormatError):
        load_weights(bad)


def test_weight_file_truncated_payload(tmp_path):
    w = init_weights(small_config())
    path = tmp_path / "model.bin"
    save_weights(w, path)
    raw = path.read_bytes()
    bad = tmp_path / "short.bin"
    bad.write_bytes(raw[:-16])
    with pytest.raises(FormatError):
        load_weights(bad)


def rewrite_header(path, edit):
    """Rewrite a weight file's JSON header in place through ``edit``."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + header_len])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                     + raw[12 + header_len:])


def saved_weights(tmp_path, **kw):
    path = tmp_path / "model.bin"
    save_weights(init_weights(small_config(**kw)), path)
    return path


def test_weight_file_shorter_than_its_preamble(tmp_path):
    path = saved_weights(tmp_path)
    path.write_bytes(path.read_bytes()[:6])
    with pytest.raises(FormatError):
        load_weights(path)


def test_weight_file_header_without_r_emb(tmp_path):
    path = saved_weights(tmp_path)
    rewrite_header(path, lambda h: h.pop("r_emb"))
    with pytest.raises(FormatError):
        load_weights(path)


@pytest.mark.parametrize("r_emb", [0.25, 2, -1.0, "1.0", True, None])
def test_weight_file_header_r_emb_must_be_the_embeddings(tmp_path, r_emb):
    # r_emb is computed from the loaded embedding (largest row norm 1.0
    # here); a header that claims another value is malformed.
    path = saved_weights(tmp_path)
    rewrite_header(path, lambda h: h.update(r_emb=r_emb))
    with pytest.raises(FormatError, match="r_emb"):
        load_weights(path)


def test_r_emb_is_computed_from_the_embedding():
    w = init_weights(small_config())
    assert w.r_emb == norm_2_to_inf(w.emb) == 1.0
    with pytest.raises(TypeError):  # not a constructor argument
        ModelWeights(config=w.config, layers=w.layers, emb=w.emb,
                     mask_token=w.mask_token, r_emb=0.25)


def test_weight_file_unknown_config_key(tmp_path):
    path = saved_weights(tmp_path)
    rewrite_header(path, lambda h: h["config"].update(depth=3))
    with pytest.raises(FormatError):
        load_weights(path)


def test_weight_file_tensor_shape_must_match_config(tmp_path):
    # A d=8 config whose w_q is stored as 4 x 16: the same bytes as 8 x 8.
    path = saved_weights(tmp_path, d=8, d_int=16)

    def reshape_w_q(header):
        for entry in header["tensors"]:
            if entry["name"] == "layers.0.w_q":
                entry["rows"], entry["cols"] = 4, 16

    rewrite_header(path, reshape_w_q)
    with pytest.raises(FormatError):
        load_weights(path)


def test_weight_file_nan_weight(tmp_path):
    w = init_weights(small_config())
    emb = w.emb.copy()
    emb[2, 1] = np.nan
    path = tmp_path / "model.bin"
    save_weights(dataclasses.replace(w, emb=emb), path)
    with pytest.raises(FormatError):
        load_weights(path)


def test_gelu_without_scipy_is_a_config_error(monkeypatch):
    # None in sys.modules makes the import fail as if scipy were missing.
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    activation_fn.cache_clear()
    try:
        with pytest.raises(ConfigError, match="'gelu' extra"):
            activation_fn("gelu")
        assert activation_fn("relu")(np.array([-1.0, 2.0])).tolist() \
            == [0.0, 2.0]
    finally:
        activation_fn.cache_clear()
