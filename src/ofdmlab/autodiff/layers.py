"""Trainable layers: 2-D convolution, linear, batch norm, activations, NLL."""

from __future__ import annotations

import functools

import numpy as np

from .tensor import DiffTensor, _accumulate, _node, as_tensor

SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717
BLOCK_BYTES = 1 << 20   # bytes per batch block of the dX scatter-add, sized to stay in cache


def _window_slices(cols_shape) -> list:
    """(padded-input index, im2col index) pairs, batch block by batch block.

    ``cols_shape`` is [B, H_out, W_out, C_in, kh, kw]. Within a block the
    kernel taps run in (u, v) order, so conv2d's dX scatter-add through the
    pairs sums each input position in the same order as one whole-batch
    pass per tap. The forward and weight-gradient gathers do not use it:
    they take the im2col rows through :func:`_im2col_index`.
    """
    n_batch, h_out, w_out, c_in, kh, kw = cols_shape
    sample_bytes = 8 * h_out * w_out * c_in * kh * kw
    step = max(1, BLOCK_BYTES // sample_bytes)
    pairs = []
    for start in range(0, n_batch, step):
        batch = slice(start, start + step)
        for u in range(kh):
            for v in range(kw):
                pairs.append(((batch, slice(u, u + h_out), slice(v, v + w_out)),
                              (batch, Ellipsis, u, v)))
    return pairs


@functools.lru_cache(maxsize=32)   # a model has a handful of conv shapes
def _im2col_index(sample_shape: tuple, kh: int, kw: int) -> np.ndarray:
    """Read-only flat index of one sample's im2col rows.

    ``sample_shape`` is one zero-padded channels-last sample (Hp, Wp, C_in).
    Entry [i, j, c, u, v] (flattened) is the position of input (i+u, j+v, c)
    in the flattened sample, so one ``np.take`` along the flattened sample
    axis yields the rows [H_out * W_out, C_in * kh * kw] in (c, u, v) order.
    """
    hp, wp, c_in = sample_shape
    rows = np.arange(hp - kh + 1).reshape(-1, 1, 1, 1, 1)
    cols = np.arange(wp - kw + 1).reshape(1, -1, 1, 1, 1)
    chans = np.arange(c_in).reshape(1, 1, -1, 1, 1)
    taps_u = np.arange(kh).reshape(1, 1, 1, -1, 1)
    taps_v = np.arange(kw).reshape(1, 1, 1, 1, -1)
    index = ((rows + taps_u) * wp + cols + taps_v) * c_in + chans
    index = index.reshape(-1)
    index.flags.writeable = False
    return index


def conv2d(x, weights, bias=None, padding=(0, 0)) -> DiffTensor:
    """Cross-correlation with stride 1 and zero padding.

    ``x`` is [B, C_in, H, W] (or [C_in, H, W], promoted to a unit batch),
    ``weights`` is [C_out, C_in, kh, kw], ``bias`` is [C_out] or None.
    ``padding`` is (pad_h, pad_w), applied on both sides of each axis.

    The input is copied into a zero-padded channels-last buffer and gathered
    into im2col rows by one ``np.take`` through a cached index. The rows
    keep the (c, u, v) column order of the weights, so the GEMM sums in the
    same order as a channel-first im2col would. The tape keeps no im2col
    matrix: backward re-pads the input and re-gathers the rows for the
    weight gradient.
    """
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
    h_out = h + 2 * ph - kh + 1
    w_out = w + 2 * pw - kw + 1
    if h_out < 1 or w_out < 1:
        raise ValueError("kernel does not fit the padded input")
    padded_shape = (n_batch, h + 2 * ph, w + 2 * pw, c_in)
    index = _im2col_index(padded_shape[1:], kh, kw)

    def im2col():
        xp = np.zeros(padded_shape)
        xp[:, ph:ph + h, pw:pw + w] = xv.transpose(0, 2, 3, 1)
        cols = np.take(xp.reshape(n_batch, -1), index, axis=1)
        return cols.reshape(n_batch * h_out * w_out, c_in * kh * kw)

    w_mat = weights.values.reshape(c_out, -1)
    out = im2col() @ w_mat.T
    parents = [x, weights]
    if bias is not None:
        bias = as_tensor(bias)
        out += bias.values
        parents.append(bias)
    # an NHWC-strided view: batch norm reduces it in this memory order
    out = np.moveaxis(out.reshape(n_batch, h_out, w_out, c_out), 3, 1)
    if squeeze_batch:
        out = out[0]

    def backward(g):
        gv = g[None] if squeeze_batch else g
        g_mat = np.ascontiguousarray(gv.transpose(0, 2, 3, 1)).reshape(-1, c_out)
        if weights.requires_grad:
            _accumulate(weights, (g_mat.T @ im2col()).reshape(weights.values.shape), owned=True)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g_mat.sum(axis=0), owned=True)
        if x.requires_grad:
            g_cols = (g_mat @ w_mat).reshape(n_batch, h_out, w_out, c_in, kh, kw)
            gxp = np.zeros(padded_shape)
            for padded, col in _window_slices(g_cols.shape):
                gxp[padded] += g_cols[col]
            gx = np.ascontiguousarray(gxp[:, ph:ph + h, pw:pw + w].transpose(0, 3, 1, 2))
            _accumulate(x, gx[0] if squeeze_batch else gx, owned=True)

    return _node(out, tuple(parents), backward)


def linear(x, weights, bias=None) -> DiffTensor:
    """Affine map over the last axis: y[..., o] = sum_i W[o, i] x[..., i] + b[o].

    One tape node. The weight gradient is formed as ``g.T @ x``, a
    C-contiguous [out, in] array like the weights themselves.
    """
    x, weights = as_tensor(x), as_tensor(weights)
    if weights.values.ndim != 2:
        raise ValueError("weights must be [out_features, in_features]")
    if x.values.shape[-1] != weights.values.shape[1]:
        raise ValueError("input feature size does not match the weights")
    n_out = weights.values.shape[0]
    flat = x.values.reshape(-1, x.values.shape[-1])
    wv = weights.values
    out = flat @ wv.T
    parents = [x, weights]
    if bias is not None:
        bias = as_tensor(bias)
        out += bias.values
        parents.append(bias)

    def backward(g):
        g_flat = g.reshape(-1, n_out)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g_flat.sum(axis=0), owned=True)
        if weights.requires_grad:
            _accumulate(weights, g_flat.T @ flat, owned=True)
        if x.requires_grad:
            _accumulate(x, (g_flat @ wv).reshape(x.values.shape), owned=True)

    return _node(out.reshape(x.values.shape[:-1] + (n_out,)), tuple(parents), backward)


class BatchNorm:
    """Batch normalization with running statistics for inference.

    ``num_channels`` refers to axis 1 of a 4-D input [B, C, H, W] or axis 1
    of a 2-D input [B, F]. Training mode normalizes with (biased) batch
    statistics and updates the running buffers; eval mode uses the buffers.
    """

    def __init__(self, num_channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gamma = DiffTensor(np.ones(num_channels), requires_grad=True)
        self.beta = DiffTensor(np.zeros(num_channels), requires_grad=True)
        self.running_mean = np.zeros(num_channels)
        self.running_var = np.ones(num_channels)
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x, train: bool, inplace: bool = False) -> DiffTensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean,
                          self.running_var, train, self.momentum, self.eps, inplace)


def batch_norm(x, gamma, beta, running_mean, running_var, train: bool,
               momentum: float = 0.1, eps: float = 1e-5, inplace: bool = False) -> DiffTensor:
    """Functional batch norm; mutates the running buffers in training mode.

    The normalized input is kept for backward in the input's layout. With
    ``inplace`` it is formed in the input's own buffer, which must have no
    other reader (as a conv2d output has none), and the output is
    C-contiguous so that :func:`selu` can write over it in turn.

    On the tape the output is regenerable: its ``_recompute`` forms gamma *
    x_hat, then + beta, from the kept x_hat as the forward did. This is
    exact only while gamma and beta hold their forward values, and they do
    for every consumer's backward: an optimizer updates them only after
    this op's own backward has run, which is after its consumers'.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.values.ndim == 2:
        axes = (0,)
    elif x.values.ndim == 4:
        axes = (0, 2, 3)
    else:
        raise ValueError("batch_norm expects a 2-D or 4-D input")
    if train and x.values.shape[0] < 2:
        raise ValueError("training-mode batch norm needs a batch of at least 2")

    xv = x.values
    shape = [1] * xv.ndim
    shape[1] = xv.shape[1]
    count = xv.size // xv.shape[1]
    if train:
        # the two passes of np.var, keeping the centred values
        mean = xv.mean(axis=axes)
        centred = np.subtract(xv, mean.reshape(shape), out=xv if inplace else None)
        var = np.square(centred).sum(axis=axes) / count
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * var
    else:
        centred = np.subtract(xv, running_mean.reshape(shape), out=xv if inplace else None)
        var = running_var

    inv_std_r = (1.0 / np.sqrt(var + eps)).reshape(shape)
    x_hat = np.multiply(centred, inv_std_r, out=centred)   # keeps the input's layout

    def affine(out):
        np.multiply(gamma.values.reshape(shape), x_hat, out=out)
        out += beta.values.reshape(shape)
        return out

    out = affine(np.empty(x_hat.shape) if inplace else np.empty_like(x_hat))

    def backward(g):
        g_sum = g.sum(axis=axes)
        g_xhat = g * x_hat
        gx_sum = g_xhat.sum(axis=axes)
        if beta.requires_grad:
            _accumulate(beta, g_sum)
        if gamma.requires_grad:
            _accumulate(gamma, gx_sum)
        if x.requires_grad:
            scale = gamma.values.reshape(shape) * inv_std_r
            if train:
                # scale * (g - mean(g) - x_hat * mean(g * x_hat)), in that order
                g_mean = (g_sum / count).reshape(shape)
                gx_mean = (gx_sum / count).reshape(shape)
                gx = np.subtract(g, g_mean, out=np.empty_like(xv))
                gx -= np.multiply(x_hat, gx_mean, out=g_xhat)
                gx *= scale
                _accumulate(x, gx, owned=True)
            else:
                _accumulate(x, scale * g)

    node = _node(out, (x, gamma, beta), backward)
    if node.requires_grad:
        node._recompute = lambda: affine(np.empty(x_hat.shape))
    return node


def selu(x, inplace: bool = False) -> DiffTensor:
    """Scaled exponential linear unit with the standard constants.

    The forward pass is lambda*max(x, 0) + lambda*alpha*(exp(min(x, 0)) - 1):
    in each branch the other term is an exact zero, so no mask is needed.
    The backward pass multiplies the exponential by a mask of the output
    instead of indexing. Output and gradient are C-contiguous whatever the
    input's layout. With ``inplace`` the output is written over the input's
    buffer, which must be C-contiguous and have no other reader.

    The tape keeps no exponential where backward can rebuild it bit for
    bit: from the input's values, which stay alive without ``inplace``, or
    through the input's ``_recompute`` (a batch-norm output) with it. Only
    an in-place SELU over an input that cannot be regenerated keeps it.
    """
    x = as_tensor(x)
    xv = x.values
    if inplace and not xv.flags.c_contiguous:
        raise ValueError("selu(inplace=True) needs a C-contiguous input")
    recompute = x._recompute
    keep = inplace and recompute is None
    expneg = _exp_negative(xv, np.empty(xv.shape))
    values = np.maximum(xv, 0.0, out=xv if inplace else np.empty(xv.shape))
    values *= SELU_LAMBDA
    shifted = np.subtract(expneg, 1.0, out=None if keep else expneg)
    shifted *= SELU_LAMBDA * SELU_ALPHA
    values += shifted
    if not keep:
        expneg = None

    def rebuilt_exp():
        if not inplace:
            return _exp_negative(xv, np.empty(xv.shape))
        source = recompute()
        return _exp_negative(source, source)

    def backward(g):
        # lambda*alpha*exp(x) where x <= 0 (there values <= 0), lambda elsewhere
        negative = values <= 0.0
        local = expneg if expneg is not None else rebuilt_exp()
        local *= SELU_LAMBDA * SELU_ALPHA
        local *= negative
        local += np.multiply(~negative, SELU_LAMBDA)
        local *= g
        _accumulate(x, local, owned=True)

    return _node(values, (x,), backward)


def _exp_negative(xv: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(min(x, 0)) into the C-contiguous ``out`` (which may be ``xv`` itself)."""
    np.minimum(xv, 0.0, out=out)
    return np.exp(out, out=out)


def gelu(x, inplace: bool = False) -> DiffTensor:
    """Gaussian error linear unit, exact form x * Phi(x).

    Its backward reads the input, so ``inplace`` (taken for the signature
    it shares with :func:`selu`) leaves the input as it is.
    """
    # imported here: scipy.special is most of the package's import time,
    # and only this non-default activation needs it
    from scipy.special import erf

    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.values / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x.values ** 2) / np.sqrt(2.0 * np.pi)
    values = x.values * cdf

    def backward(g):
        _accumulate(x, g * (cdf + x.values * pdf))

    return _node(values, (x,), backward)


ACTIVATIONS = {"selu": selu, "gelu": gelu}


def log_softmax_values(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_values(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax_values(logits))


def softmax_nll(logits, targets) -> DiffTensor:
    """Summed negative log-likelihood of a softmax over the last axis.

    ``targets`` holds integer class indices with shape ``logits.shape[:-1]``.
    The gradient of the summed loss is softmax(logits) - one_hot(targets).
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    n_classes = logits.values.shape[-1]
    if n_classes < 2:
        raise ValueError("softmax needs at least two classes")
    if targets.shape != logits.values.shape[:-1]:
        raise ValueError("target shape must match the logit positions")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ValueError("target index out of range")
    log_probs = log_softmax_values(logits.values)
    picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)
    loss = -picked.sum()

    def backward(g):
        grad = softmax_values(logits.values)
        np.subtract.at(grad.reshape(-1, n_classes),
                       (np.arange(targets.size), targets.reshape(-1)), 1.0)
        _accumulate(logits, grad * g)

    return _node(np.float64(loss), (logits,), backward)
