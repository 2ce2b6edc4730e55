"""The fast training kernels against the straightforward kernels they replace.

The oracles below are verbatim copies of the earlier im2col conv2d (with
its Python scatter loop), masked SELU, two-pass batch norm, matmul-based
linear, per-parameter AdamW and the backward pass that keeps the tape.
The fast kernels must match them bit for bit: values, gradients, output
memory layout, and whole training runs down to the log and checkpoint
bytes. Shapes are the acceptance-9 smoke geometry (2x2, K=16, L=4, batch 32).
The batch-norm and SELU oracles take the model's ``inplace`` keyword and
ignore it; ``AdamWRef.backward_step`` runs backward and then the oracle's
step, in place of the step fused into backward.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ofdmlab.autodiff import layers
from ofdmlab.autodiff.layers import SELU_ALPHA, SELU_LAMBDA
from ofdmlab.autodiff.optim import AdamW
from ofdmlab.autodiff.tensor import (DiffTensor, _accumulate, _node, as_tensor,
                                     matmul, parameter, reshape, transpose, tsum)
from ofdmlab.cae import model, training
from ofdmlab.cae.pipeline import build_system
from ofdmlab.config import parse_config
from ofdmlab.harness import run_ber

# -- oracles: the earlier kernels, unchanged ----------------------------------


def conv2d_ref(x, weights, bias=None, padding=(0, 0)) -> DiffTensor:
    x, weights = as_tensor(x), as_tensor(weights)
    squeeze_batch = x.values.ndim == 3
    xv = x.values[None] if squeeze_batch else x.values
    if xv.ndim != 4 or weights.values.ndim != 4:
        raise ValueError("conv2d expects a 4-D input and 4-D weights")
    n_batch, c_in, h, w = xv.shape
    c_out, c_in_w, kh, kw = weights.values.shape
    if c_in_w != c_in:
        raise ValueError("weight channel count does not match the input")
    ph, pw = padding
    xp = np.pad(xv, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    h_out = h + 2 * ph - kh + 1
    w_out = w + 2 * pw - kw + 1
    if h_out < 1 or w_out < 1:
        raise ValueError("kernel does not fit the padded input")

    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n_batch * h_out * w_out, c_in * kh * kw)
    w_mat = weights.values.reshape(c_out, -1)
    out = cols @ w_mat.T
    parents = [x, weights]
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.values
        parents.append(bias)
    out = np.moveaxis(out.reshape(n_batch, h_out, w_out, c_out), 3, 1)
    if squeeze_batch:
        out = out[0]

    def backward(g):
        gv = g[None] if squeeze_batch else g
        g_mat = np.ascontiguousarray(gv.transpose(0, 2, 3, 1)).reshape(-1, c_out)
        if weights.requires_grad:
            _accumulate(weights, (g_mat.T @ cols).reshape(weights.values.shape))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g_mat.sum(axis=0))
        if x.requires_grad:
            g_cols = (g_mat @ w_mat).reshape(n_batch, h_out, w_out, c_in, kh, kw)
            gxp = np.zeros_like(xp)
            for u in range(kh):
                for v in range(kw):
                    gxp[:, :, u:u + h_out, v:v + w_out] += g_cols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
            gx = gxp[:, :, ph:ph + h, pw:pw + w]
            _accumulate(x, gx[0] if squeeze_batch else gx)

    return _node(out, tuple(parents), backward)


def linear_ref(x, weights, bias=None) -> DiffTensor:
    x, weights = as_tensor(x), as_tensor(weights)
    if weights.values.ndim != 2:
        raise ValueError("weights must be [out_features, in_features]")
    if x.values.shape[-1] != weights.values.shape[1]:
        raise ValueError("input feature size does not match the weights")
    lead = x.values.shape[:-1]
    flat = reshape(x, (-1, x.values.shape[-1])) if x.values.ndim != 2 else x
    out = matmul(flat, transpose(weights, (1, 0)))
    if bias is not None:
        out = out + as_tensor(bias)
    if x.values.ndim != 2:
        out = reshape(out, lead + (weights.values.shape[0],))
    return out


def batch_norm_ref(x, gamma, beta, running_mean, running_var, train: bool,
                   momentum: float = 0.1, eps: float = 1e-5, inplace: bool = False) -> DiffTensor:
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.values.ndim == 2:
        axes = (0,)
    elif x.values.ndim == 4:
        axes = (0, 2, 3)
    else:
        raise ValueError("batch_norm expects a 2-D or 4-D input")
    if train and x.values.shape[0] < 2:
        raise ValueError("training-mode batch norm needs a batch of at least 2")

    if train:
        mean = x.values.mean(axis=axes)
        var = x.values.var(axis=axes)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    shape = [1] * x.values.ndim
    shape[1] = x.values.shape[1]
    mean_r = mean.reshape(shape)
    inv_std = 1.0 / np.sqrt(var + eps)
    inv_std_r = inv_std.reshape(shape)
    x_hat = (x.values - mean_r) * inv_std_r
    out = gamma.values.reshape(shape) * x_hat + beta.values.reshape(shape)

    def backward(g):
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=axes))
        if gamma.requires_grad:
            _accumulate(gamma, (g * x_hat).sum(axis=axes))
        if x.requires_grad:
            scale = gamma.values.reshape(shape) * inv_std_r
            if train:
                g_mean = g.mean(axis=axes).reshape(shape)
                gx_mean = (g * x_hat).mean(axis=axes).reshape(shape)
                _accumulate(x, scale * (g - g_mean - x_hat * gx_mean))
            else:
                _accumulate(x, scale * g)

    return _node(out, (x, gamma, beta), backward)


def selu_ref(x, inplace: bool = False) -> DiffTensor:
    x = as_tensor(x)
    flat = x.values.reshape(-1)
    neg = flat <= 0
    expneg = np.exp(flat[neg])
    values = SELU_LAMBDA * flat.copy()
    values[neg] = (SELU_LAMBDA * SELU_ALPHA) * (expneg - 1.0)

    def backward(g):
        local = np.full_like(flat, SELU_LAMBDA)
        local[neg] = (SELU_LAMBDA * SELU_ALPHA) * expneg
        _accumulate(x, (local * g.reshape(-1)).reshape(x.values.shape))

    return _node(values.reshape(x.values.shape), (x,), backward)


class AdamWRef:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.values) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            if g.shape != p.values.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            scratch = np.array(v / bc2)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            np.divide(m, scratch, out=scratch)
            scratch *= self.lr / bc1
            if self.weight_decay:
                p.values *= 1.0 - self.lr * self.weight_decay
            p.values -= scratch

    def grad_norm(self) -> float:
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float(np.sum(p.grad ** 2))
        return float(np.sqrt(total))

    def backward_step(self, loss):
        """Stand-in for the fused step: backward, then step; grad_norm() still reads the grads."""
        self.zero_grad()
        loss.backward()
        self.step()


def backward_ref(self):
    if self.values.size != 1:
        raise ValueError("backward() requires a scalar")
    topo = []
    visited = set()
    stack = [(self, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    _accumulate(self, np.ones_like(self.values))
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


@pytest.fixture
def oracles(monkeypatch):
    """Swap every fast kernel for its oracle where the model binds it."""
    def install():
        monkeypatch.setattr(model, "conv2d", conv2d_ref)
        monkeypatch.setattr(model, "linear", linear_ref)
        monkeypatch.setattr(layers, "batch_norm", batch_norm_ref)
        monkeypatch.setitem(layers.ACTIVATIONS, "selu", selu_ref)
        monkeypatch.setattr(training, "AdamW", AdamWRef)
        monkeypatch.setattr(DiffTensor, "backward", backward_ref)
    return install


# -- helpers ------------------------------------------------------------------

B = 32


def nhwc(rng, shape):
    """A [B, C, H, W] array laid out like a conv2d output (channels last)."""
    b, c, h, w = shape
    return np.moveaxis(rng.standard_normal((b, h, w, c)), 3, 1)


def leaf(values):
    return DiffTensor(values, requires_grad=True)


def assert_same(a, b, layout=True):
    assert a.shape == b.shape
    assert np.array_equal(a, b), f"max diff {np.max(np.abs(a - b))}"
    if layout:
        assert a.strides == b.strides


def run_op(op, arrays, kwargs, weights_seed):
    """Forward + weighted-sum backward; returns (output values, leaf grads)."""
    inputs = [leaf(np.array(a, order="K")) for a in arrays]
    out = op(*inputs, **kwargs)
    r = np.random.default_rng(weights_seed).standard_normal(out.values.shape)
    tsum(out * r).backward()
    return out.values, [t.grad for t in inputs]


# -- per-op exactness at the model's shapes ---------------------------------

CONV_CASES = [   # (name, input shape, input is NHWC-strided, weight shape, padding)
    ("enc1", (B, 1, 2, 128), False, (21, 1, 1, 3), (0, 1)),
    ("enc2", (B, 21, 2, 128), False, (15, 21, 1, 3), (0, 1)),
    ("enc3", (B, 15, 2, 128), False, (21, 15, 1, 3), (0, 1)),
    ("dec_a", (B, 1, 6, 32), False, (15, 1, 3, 3), (2, 2)),
    ("dec_b", (B, 15, 8, 34), False, (21, 15, 3, 3), (2, 2)),
    ("dec_b_nhwc", (B, 15, 8, 34), True, (21, 15, 3, 3), (2, 2)),
    ("unbatched", (3, 5, 7), False, (4, 3, 2, 3), (1, 0)),
]


@pytest.mark.parametrize("name,x_shape,x_nhwc,w_shape,padding", CONV_CASES,
                         ids=[c[0] for c in CONV_CASES])
def test_conv2d_exact(name, x_shape, x_nhwc, w_shape, padding):
    rng = np.random.default_rng(1)
    x = nhwc(rng, x_shape) if x_nhwc else rng.standard_normal(x_shape)
    arrays = [x, rng.standard_normal(w_shape), rng.standard_normal(w_shape[0])]
    out_ref, grads_ref = run_op(conv2d_ref, arrays, {"padding": padding}, 2)
    out_new, grads_new = run_op(layers.conv2d, arrays, {"padding": padding}, 2)
    assert_same(out_new, out_ref)
    for g_new, g_ref in zip(grads_new, grads_ref):
        assert_same(g_new, g_ref)
    assert grads_new[0].flags.c_contiguous


@pytest.mark.parametrize("shape", [(B, 21, 2, 128), (B, 15, 8, 34), (B, 21, 10, 36)])
@pytest.mark.parametrize("train", [True, False])
def test_batch_norm_exact_on_conv_layout(shape, train):
    rng = np.random.default_rng(3)
    x = nhwc(rng, shape)
    c = shape[1]
    results = []
    for op in (batch_norm_ref, layers.batch_norm):
        running_mean = np.linspace(-0.5, 0.5, c)
        running_var = np.linspace(0.5, 1.5, c)
        out, grads = run_op(
            lambda xt, gt, bt, op=op, rm=running_mean, rv=running_var:
                op(xt, gt, bt, rm, rv, train),
            [x, 1.0 + 0.1 * np.arange(c), 0.01 * np.arange(c)], {}, 4)
        results.append((out, grads, running_mean, running_var))
    (out_ref, grads_ref, rm_ref, rv_ref), (out_new, grads_new, rm_new, rv_new) = results
    assert_same(out_new, out_ref)
    for g_new, g_ref in zip(grads_new, grads_ref):
        assert_same(g_new, g_ref, layout=False)
    assert_same(rm_new, rm_ref)
    assert_same(rv_new, rv_ref)


def test_batch_norm_exact_2d():
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal((8, 6)), rng.standard_normal(6), rng.standard_normal(6)]
    outs = [run_op(lambda x, g, b, op=op: op(x, g, b, np.zeros(6), np.ones(6), True),
                   arrays, {}, 6) for op in (batch_norm_ref, layers.batch_norm)]
    assert_same(outs[1][0], outs[0][0])
    for g_new, g_ref in zip(outs[1][1], outs[0][1]):
        assert_same(g_new, g_ref)


@pytest.mark.parametrize("shape,x_nhwc", [((B, 21, 2, 128), True), ((B, 15, 8, 34), True),
                                          ((B, 21, 10, 36), False), ((7,), False)])
def test_selu_exact(shape, x_nhwc):
    rng = np.random.default_rng(7)
    x = nhwc(rng, shape) if x_nhwc else rng.standard_normal(shape)
    x[(0,) * (x.ndim - 1)][:3] = (0.0, -0.0, -800.0)   # both zeros and an exp underflow
    out_ref, (g_ref,) = run_op(selu_ref, [x], {}, 8)
    out_new, (g_new,) = run_op(layers.selu, [x], {}, 8)
    assert_same(out_new, out_ref)
    assert_same(g_new, g_ref)
    assert out_new.flags.c_contiguous and g_new.flags.c_contiguous


@pytest.mark.parametrize("shape", [(B, 21, 2, 128), (B, 21, 10, 36)])
@pytest.mark.parametrize("train", [True, False])
def test_batch_norm_inplace_exact(shape, train):
    """In place on a conv output: the oracle's values and grads, a C-ordered output."""
    rng = np.random.default_rng(3)
    x = nhwc(rng, shape)
    c = shape[1]
    results = []
    for op, inplace in ((batch_norm_ref, False), (layers.batch_norm, True)):
        running_mean = np.linspace(-0.5, 0.5, c)
        running_var = np.linspace(0.5, 1.5, c)
        out, grads = run_op(
            lambda xt, gt, bt, op=op, rm=running_mean, rv=running_var, inplace=inplace:
                op(xt, gt, bt, rm, rv, train, inplace=inplace),
            [x, 1.0 + 0.1 * np.arange(c), 0.01 * np.arange(c)], {}, 4)
        results.append((out, grads, running_mean, running_var))
    (out_ref, grads_ref, rm_ref, rv_ref), (out_new, grads_new, rm_new, rv_new) = results
    assert_same(out_new, out_ref, layout=False)
    assert out_new.flags.c_contiguous
    for g_new, g_ref in zip(grads_new, grads_ref):
        assert_same(g_new, g_ref, layout=False)
    assert_same(rm_new, rm_ref)
    assert_same(rv_new, rv_ref)


def test_selu_inplace_exact():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((B, 21, 10, 36))
    x[0, 0, 0, :3] = (0.0, -0.0, -800.0)
    out_ref, (g_ref,) = run_op(selu_ref, [x], {}, 8)
    xt = leaf(x.copy())
    buffer = xt.values
    out = layers.selu(xt, inplace=True)
    tsum(out * np.random.default_rng(8).standard_normal(x.shape)).backward()
    assert out.values is buffer
    assert_same(out.values, out_ref)
    assert_same(xt.grad, g_ref)
    with pytest.raises(ValueError, match="C-contiguous"):
        layers.selu(leaf(nhwc(rng, (2, 3, 4, 5))), inplace=True)


@pytest.mark.parametrize("x_shape,w_shape", [((2 * B, 2688), (128, 2688)),
                                             ((B, 7560), (64, 7560)),
                                             ((B, 7560), (128, 7560)),
                                             ((2, 3, 5), (4, 5))])
def test_linear_exact(x_shape, w_shape):
    rng = np.random.default_rng(9)
    arrays = [rng.standard_normal(x_shape), rng.standard_normal(w_shape),
              rng.standard_normal(w_shape[0])]
    out_ref, grads_ref = run_op(linear_ref, arrays, {}, 10)
    out_new, grads_new = run_op(layers.linear, arrays, {}, 10)
    assert_same(out_new, out_ref)
    assert_same(grads_new[0], grads_ref[0])
    assert_same(grads_new[1], grads_ref[1], layout=False)   # now C-ordered
    assert grads_new[1].flags.c_contiguous
    assert_same(grads_new[2], grads_ref[2])


def test_adamw_exact_with_linear_weight_layout():
    """AdamW and grad_norm agree while the oracle sees F-ordered weight grads."""
    rng = np.random.default_rng(11)
    shapes = {"conv/w": (21, 15, 3, 3), "conv/b": (21,), "fc/w": (64, 7560),
              "fc/b": (64,), "delta1": (), "delta2": (), "unused": (5,)}
    init = {k: rng.standard_normal(s) for k, s in shapes.items()}
    ref = {k: parameter(v) for k, v in init.items()}
    new = {k: parameter(v) for k, v in init.items()}
    opt_ref = AdamWRef(ref, lr=0.002, weight_decay=0.01)
    opt_new = AdamW(new, lr=0.002, weight_decay=0.01)
    for _ in range(3):
        for k, s in shapes.items():
            if k == "unused":
                ref[k].grad = new[k].grad = None
                continue
            g = np.array(rng.standard_normal(s))
            ref[k].grad = np.asfortranarray(g) if g.ndim == 2 else g.copy()
            new[k].grad = g.copy()
        expected_norm = opt_ref.grad_norm()
        opt_ref.step()
        opt_new.step()
        assert opt_new.grad_norm() == expected_norm
        for k in shapes:
            assert_same(new[k].values, ref[k].values)
            assert_same(opt_new.m[k], opt_ref.m[k])
            assert_same(opt_new.v[k], opt_ref.v[k])


# -- whole runs --------------------------------------------------------------

SMOKE = training.TrainConfig(
    n_tx=2, n_rx=2, n_subcarriers=16, oversample=4, mod_order=4, channel_taps=0,
    epochs=3, gradual_start_epoch=2, batches_per_epoch=1, batch_size=32, ibo_db=9.0,
    lr=0.002, seed=12)


def _train_bytes(tmp_path, tag):
    ckpt, log = tmp_path / f"{tag}.bin", tmp_path / f"{tag}.csv"
    training.train(SMOKE, checkpoint_path=ckpt, log_path=log)
    return log.read_bytes(), ckpt.read_bytes()


def test_smoke_training_bytes_match_oracles(tmp_path, oracles):
    fast = _train_bytes(tmp_path, "fast")
    oracles()
    assert _train_bytes(tmp_path, "oracle") == fast


def test_cae_ber_text_matches_oracles(tmp_path, oracles):
    checkpoint = tmp_path / "cae.bin"
    system = build_system(2, 2, 16, 4, 4, ibo_db=9.0, seed=3)
    training.save_system(checkpoint, system, replace(SMOKE, epochs=1, gradual_start_epoch=1))
    cfg = parse_config(
        "[system]\nn_tx = 2\nn_rx = 2\nn_subcarriers = 16\noversample = 4\nmod_order = 4\n"
        "[rf]\nibo_db = 9.0\n[run]\nframes = 4\nseed = 3\n"
        f"[method]\nname = cae\ncheckpoint = {checkpoint}\n[detector]\nname = cae\n")
    fast, _ = run_ber(cfg.validated())
    oracles()
    oracle, _ = run_ber(cfg.validated())
    assert oracle == fast


# -- the freed tape ------------------------------------------------------------


def test_second_backward_raises():
    w = parameter([1.0, 2.0])
    loss = tsum(w * w)
    loss.backward()
    with pytest.raises(RuntimeError, match="already freed"):
        loss.backward()


def test_shared_subgraph_second_root_raises():
    w = parameter([1.0, 2.0])
    shared = w * w
    first, second = tsum(shared), tsum(shared * 3.0)
    first.backward()
    with pytest.raises(RuntimeError, match="already freed"):
        second.backward()


def test_decoder_activation_freed_after_backward(monkeypatch):
    system = build_system(2, 2, 16, 4, 4, ibo_db=9.0, iterations=2, seed=1)
    refs = []
    act = system.decoder.act

    def recording_act(x, **kwargs):
        out = act(x, **kwargs)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(system.decoder, "act", recording_act)
    cfg = replace(SMOKE, batch_size=4)
    rng = training.counter_rng(1, 0, 1)
    grids, h, noise = training.make_batch(rng, cfg, 1e-4)
    result = system.run_batch(grids, h, noise, rng, train=True)
    loss = result.l1
    gc.collect()
    assert refs and all(r() is not None for r in refs)
    loss.backward()
    gc.collect()
    assert all(r() is None for r in refs)
    assert system.decoder.fc_w[0].grad is not None


# -- memory held between steps ---------------------------------------------------


def test_conv2d_tape_holds_no_im2col_matrix():
    """At decoder conv_b shape the node keeps less than one im2col matrix beyond its output."""
    n, c_in, h, w = B, 15, 8, 34
    c_out, kh, kw = 21, 3, 3
    rng = np.random.default_rng(13)
    x = leaf(nhwc(rng, (n, c_in, h, w)))
    weights = leaf(rng.standard_normal((c_out, c_in, kh, kw)))
    bias = leaf(rng.standard_normal(c_out))
    cols_bytes = 8 * n * (h + 2) * (w + 2) * c_in * kh * kw    # padding 2, 3x3: H + 2, W + 2
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = layers.conv2d(x, weights, bias, padding=(2, 2))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held - out.values.nbytes < cols_bytes


def test_conv_block_holds_three_maps():
    """Decoder conv_b, train mode: conv -> batch norm -> SELU keeps three output maps.

    x_hat (in the conv output's buffer), SELU's output (in batch norm's)
    and SELU's exponential; the conv output, a separate x_hat and a
    separate SELU output are not kept.
    """
    n, c_in, h, w = B, 15, 8, 34
    c_out = 21
    rng = np.random.default_rng(14)
    x = leaf(rng.standard_normal((n, c_in, h, w)))
    weights = leaf(rng.standard_normal((c_out, c_in, 3, 3)))
    bias = leaf(rng.standard_normal(c_out))
    bn = layers.BatchNorm(c_out)
    map_bytes = 8 * n * c_out * (h + 2) * (w + 2)
    layers.conv2d(x, weights, bias, padding=(2, 2))   # fills the cached im2col index
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        conv = layers.conv2d(x, weights, bias, padding=(2, 2))
        out = layers.selu(bn(conv, True, inplace=True), inplace=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert 3 * map_bytes <= held < 3 * map_bytes + (1 << 16)


def test_one_decoder_fc_gradient_alive_during_backward(monkeypatch):
    """The fused step drops each FC weight gradient before the next one is formed."""
    system = build_system(2, 2, 16, 4, 4, ibo_db=9.0, iterations=4, seed=1)
    fc_w = system.decoder.fc_w
    alive = []
    accumulate = layers._accumulate

    def counting(node, grad, owned=False):
        accumulate(node, grad, owned)
        alive.append(sum(w.grad is not None for w in fc_w))

    monkeypatch.setattr(layers, "_accumulate", counting)
    rng = training.counter_rng(1, 0, 1)
    grids, h, noise = training.make_batch(rng, replace(SMOKE, batch_size=4), 1e-4)
    result = system.run_batch(grids, h, noise, rng, train=True)
    optimizer = AdamW(system.parameters())
    optimizer.backward_step(result.l1)
    assert max(alive) == 1
    assert all(p.grad is None for p in system.parameters().values())
    assert optimizer.grad_norm() > 0.0


def test_grads_released_after_each_step(monkeypatch):
    """No gradient is alive during a forward pass or once train() returns."""
    from ofdmlab.cae.pipeline import CaeSystem
    run_batch = CaeSystem.run_batch
    seen = []

    def checked(self, *args, **kwargs):
        seen.append(all(p.grad is None for p in self.parameters().values()))
        return run_batch(self, *args, **kwargs)

    monkeypatch.setattr(CaeSystem, "run_batch", checked)
    cfg = replace(SMOKE, batch_size=4, decoder_iterations=2, epochs=2,
                  gradual_start_epoch=2, batches_per_epoch=2)
    result = training.train(cfg)
    assert seen == [True] * 4
    assert all(p.grad is None for p in result.system.parameters().values())
