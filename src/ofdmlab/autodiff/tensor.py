"""Reverse-mode automatic differentiation over float64 numpy arrays.

A DiffTensor wraps an ndarray plus an optional backward closure; operations
build a DAG whose `backward` pass visits every node once in reverse
topological order and then frees it. Only the operations the autoencoder
needs are provided. Everything is float64 and deterministic: identical inputs
give bit-identical values and gradients.
"""

from __future__ import annotations

import threading

import numpy as np

_STATE = threading.local()


class no_grad:
    """Context manager that skips tape construction (inference mode).

    The flag is thread-local, so inference workers do not disturb a
    training thread.
    """

    def __enter__(self):
        self._prev = grad_enabled()
        _STATE.enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.enabled = self._prev
        return False


def grad_enabled() -> bool:
    return getattr(_STATE, "enabled", True)


class DiffTensor:
    """An array on the tape.

    ``_recompute``, if set by the op that made the tensor, is a closure that
    returns its values afresh in a new C-contiguous array, bit for bit, from
    what that op's backward keeps anyway. An in-place consumer that
    overwrites the values can then regenerate them in its own backward
    instead of keeping a copy; the closure is dropped with the op's backward.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_recompute", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._recompute = None

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"DiffTensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def backward(self, leaf_done=None):
        """Accumulate d(self)/d(leaf) into every reachable parameter's grad.

        One backward per graph; the tape is freed. Each non-leaf node drops
        its grad, closure and parents once its own backward has run, so the
        activations it held can be reclaimed before the next forward pass.
        A second ``backward()`` through a freed node raises RuntimeError.

        ``leaf_done(leaf)``, if given, is called for each leaf as soon as
        the backward of its last consumer has run: its grad is final then,
        and nothing left on the tape reads the leaf's values.
        """
        if self.values.size != 1:
            raise ValueError("backward() requires a scalar")
        if self._backward_fn is _released:
            _released(None)
        topo: list[DiffTensor] = []
        visited: set[int] = set()
        stack: list[tuple[DiffTensor, bool]] = [(self, False)]
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
        consumers: dict[int, int] = {}   # leaf id -> consumers whose backward is still to run
        if leaf_done is not None:
            for node in topo:
                for parent in node._parents:
                    if parent._backward_fn is None:
                        consumers[id(parent)] = consumers.get(id(parent), 0) + 1
        _accumulate(self, np.ones_like(self.values))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                parents = node._parents
                node.grad = None
                node._backward_fn = _released
                node._parents = ()
                node._recompute = None
                if leaf_done is not None:
                    for parent in parents:
                        if parent._backward_fn is None:
                            consumers[id(parent)] -= 1
                            if not consumers[id(parent)]:
                                leaf_done(parent)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        return tmax(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)


def as_tensor(x) -> DiffTensor:
    return x if isinstance(x, DiffTensor) else DiffTensor(x)


def parameter(values) -> DiffTensor:
    return DiffTensor(np.array(values, dtype=np.float64), requires_grad=True)


def flat_views(shapes, allocate) -> list[np.ndarray]:
    """One C-contiguous float64 view per shape, in order, of one flat buffer.

    ``allocate(size)`` makes the buffer, e.g. ``np.zeros`` or ``np.empty``.
    """
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = allocate(sum(sizes))
    offsets = np.cumsum([0] + sizes)
    return [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(offsets[:-1], offsets[1:], shapes)]


def _released(grad):
    """Stands in for the closure of a node whose backward has already run."""
    raise RuntimeError("backward() through a graph that was already freed; "
                       "run the forward pass again")


def _accumulate(node: DiffTensor, grad: np.ndarray, owned: bool = False):
    """Add ``grad`` into ``node.grad``.

    ``owned`` hands over a fresh float64 array that nothing else references,
    which then becomes the grad without a copy (the copy would keep its
    memory layout, so values and later reductions are the same either way).
    """
    if node.grad is None:
        node.grad = grad if owned else np.array(grad, dtype=np.float64)
    else:
        node.grad += grad


def _node(values: np.ndarray, parents: tuple, backward_fn) -> DiffTensor:
    out = DiffTensor(values)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ------------------------------------------------


def add(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values + b.values

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.values.shape))

    return _node(values, (a, b), backward)


def sub(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values - b.values

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.values.shape))

    return _node(values, (a, b), backward)


def mul(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values * b.values

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.values.shape))

    return _node(values, (a, b), backward)


def div(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values / b.values

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.values, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.values / b.values ** 2, b.values.shape))

    return _node(values, (a, b), backward)


def power(a, exponent: float) -> DiffTensor:
    a = as_tensor(a)
    exponent = float(exponent)
    values = a.values ** exponent

    def backward(g):
        _accumulate(a, g * exponent * a.values ** (exponent - 1.0))

    return _node(values, (a,), backward)


def exp(a) -> DiffTensor:
    a = as_tensor(a)
    values = np.exp(a.values)

    def backward(g):
        _accumulate(a, g * values)

    return _node(values, (a,), backward)


def log(a) -> DiffTensor:
    a = as_tensor(a)
    values = np.log(a.values)

    def backward(g):
        _accumulate(a, g / a.values)

    return _node(values, (a,), backward)


def log10(a) -> DiffTensor:
    return mul(log(a), 1.0 / np.log(10.0))


def maximum(a, b) -> DiffTensor:
    """Elementwise max; on ties the gradient is routed to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    values = np.maximum(a.values, b.values)
    take_a = a.values >= b.values

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.where(take_a, g, 0.0), a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.where(take_a, 0.0, g), b.values.shape))

    return _node(values, (a, b), backward)


# -- reductions --------------------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> DiffTensor:
    a = as_tensor(a)
    values = a.values.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            grad = np.broadcast_to(g, a.values.shape)
        else:
            g_exp = g if keepdims else np.expand_dims(g, axis)
            grad = np.broadcast_to(g_exp, a.values.shape)
        _accumulate(a, grad)

    return _node(values, (a,), backward)


def tmean(a, axis=None, keepdims=False) -> DiffTensor:
    a = as_tensor(a)
    if axis is None:
        count = a.values.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.values.shape[i] for i in axes]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def tmax(a, axis=None, keepdims=False) -> DiffTensor:
    """Max reduction; subgradient flows to the first attaining entry."""
    a = as_tensor(a)
    values = a.values.max(axis=axis, keepdims=keepdims)
    if axis is None:
        flat_idx = int(np.argmax(a.values))
    else:
        arg = np.argmax(a.values, axis=axis)

    def backward(g):
        grad = np.zeros_like(a.values)
        if axis is None:
            grad.reshape(-1)[flat_idx] = g if np.isscalar(g) else g.reshape(-1)[0]
        else:
            g_red = g if not keepdims else np.squeeze(g, axis=axis)
            np.put_along_axis(grad, np.expand_dims(arg, axis),
                              np.expand_dims(g_red, axis), axis=axis)
        _accumulate(a, grad)

    return _node(values, (a,), backward)


# -- shape manipulation ------------------------------------------------------


def reshape(a, shape) -> DiffTensor:
    a = as_tensor(a)
    values = a.values.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.values.shape))

    return _node(values, (a,), backward)


def transpose(a, axes) -> DiffTensor:
    a = as_tensor(a)
    values = a.values.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return _node(values, (a,), backward)


def concat(tensors: list, axis: int) -> DiffTensor:
    tensors = [as_tensor(t) for t in tensors]
    values = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(idx)])

    return _node(values, tuple(tensors), backward)


def narrow(a, axis: int, start: int, length: int) -> DiffTensor:
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    idx = [slice(None)] * a.values.ndim
    idx[axis] = slice(start, start + length)
    values = a.values[tuple(idx)]

    def backward(g):
        grad = np.zeros_like(a.values)
        grad[tuple(idx)] = g
        _accumulate(a, grad)

    return _node(values, (a,), backward)


def matmul(a, b) -> DiffTensor:
    """``a @ b`` with numpy batch semantics; broadcast axes are summed on backward."""
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    values = a.values @ b.values

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.values, -1, -2)
            _accumulate(a, _unbroadcast(ga, a.values.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.values, -1, -2) @ g
            _accumulate(b, _unbroadcast(gb, b.values.shape))

    return _node(values, (a, b), backward)
