"""AdamW: Adam with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .tensor import DiffTensor, flat_views

BLOCK = 1 << 15   # entries per cache block of the update (256 KiB per float64 buffer)


class AdamW:
    """Deterministic AdamW over a name -> parameter mapping.

    The update per parameter is
        m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*g^2
        p -= lr * ( m_hat / (sqrt(v_hat) + eps) + weight_decay * p )
    with bias-corrected moments. A missing gradient counts as zero. Each
    update drops the gradients it used. ``m`` and ``v`` map each name to a
    view of one flat buffer each, in parameter order; the buffers are
    zero-filled by the allocator, so their pages are touched by the first
    update, not here.
    """

    def __init__(self, params: dict[str, DiffTensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        shapes = [p.values.shape for p in self.params.values()]
        self.m = dict(zip(self.params, flat_views(shapes, np.zeros)))
        self.v = dict(zip(self.params, flat_views(shapes, np.zeros)))
        size = max((p.values.size for p in self.params.values()), default=1)
        self._scratch = np.empty((2, min(BLOCK, size)))
        self._names = {id(p): name for name, p in self.params.items()}
        self._square_sums: dict[str, float] = {}

    def step(self):
        """One update from the gradients on the parameters."""
        self._begin()
        for name, p in self.params.items():
            self._update(name, p)

    def backward_step(self, loss: DiffTensor):
        """``loss.backward()`` and :meth:`step` in one pass over the tape.

        Each parameter is updated, and its gradient dropped, as soon as the
        backward of its last consumer has run, so only the gradients of
        parameters whose consumers are still pending are alive together.
        The update of one parameter does not depend on the others, so the
        values equal those of ``backward()`` then ``step()``. A parameter
        that backward does not hand over is updated after it, as by ``step()``.
        """
        self._begin()
        pending = dict(self.params)

        def leaf_done(leaf: DiffTensor):
            name = self._names.get(id(leaf))
            if name is not None:
                self._update(name, pending.pop(name))

        loss.backward(leaf_done=leaf_done)
        for name, p in pending.items():
            self._update(name, p)

    def _begin(self):
        self.step_count += 1
        self._square_sums = {}

    def _update(self, name: str, p: DiffTensor):
        """Update one parameter block by block through flat views, then drop its gradient.

        Every entry goes through the same operations in the same order as
        whole-array numpy arithmetic would apply them, so the result is
        identical; only the temporaries shrink to two cache-sized buffers.
        The gradient's squared sum is recorded for :meth:`grad_norm` first.
        """
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        step_size = self.lr / bc1
        decay = 1.0 - self.lr * self.weight_decay
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        if g.shape != p.values.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if p.grad is not None:
            # a 2-D gradient (a linear weight, [out, in]) is summed in [in, out]
            # order, the order that keeps logged grad_norms byte-identical
            squares = np.square(g.T, order="C") if g.ndim == 2 else np.square(g)
            self._square_sums[name] = float(squares.sum())
        if not p.values.flags.c_contiguous:
            p.values = np.ascontiguousarray(p.values)
        # reshape(-1) of a C-contiguous array is a view: updates land in place
        flat = [a.reshape(-1) for a in
                (p.values, self.m[name], self.v[name], np.ascontiguousarray(g))]
        for lo in range(0, flat[0].size, BLOCK):
            p_b, m_b, v_b, g_b = (a[lo:lo + BLOCK] for a in flat)
            t, u = (s[:p_b.size] for s in self._scratch)
            m_b *= self.beta1
            m_b += np.multiply(g_b, 1.0 - self.beta1, out=t)
            v_b *= self.beta2
            np.square(g_b, out=t)
            v_b += np.multiply(t, 1.0 - self.beta2, out=t)
            # denom = sqrt(v/bc2) + eps; update = m / denom * lr/bc1
            np.divide(v_b, bc2, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            np.divide(m_b, u, out=u)
            u *= step_size
            if self.weight_decay:
                p_b *= decay
            p_b -= u
        p.grad = None

    def grad_norm(self) -> float:
        """Global L2 norm of the gradients the last update applied.

        Each gradient's squares were summed by the update in one pass, in
        numpy's pairwise order over the array's memory; the sums are added
        here in parameter order. Parameters without a gradient add nothing.
        """
        total = 0.0
        for name in self.params:
            if name in self._square_sums:
                total += self._square_sums[name]
        return float(np.sqrt(total))
