"""Spans and op-shape records taken from outside the program.

`Tracer.install` rebinds the public functions listed in SPAN_TARGETS at
every name an ``ofdmlab`` module binds them under, so each call runs inside
a span (name, start, end, parent). It also rebinds the tape ops of
OP_TARGETS at the one name their caller uses, to record the input shapes
they really see; `replay_ops` then times the public ops at those shapes.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter

import numpy as np

# (span name, module, attribute); "Class.method" names a method.
SPAN_TARGETS = [
    ("autodiff.backward", "ofdmlab.autodiff.tensor", "DiffTensor.backward"),
    ("autodiff.adamw_step", "ofdmlab.autodiff.optim", "AdamW.step"),
    ("autodiff.grad_norm", "ofdmlab.autodiff.optim", "AdamW.grad_norm"),
    ("cae.encoder_forward", "ofdmlab.cae.model", "EncoderNet.forward"),
    ("cae.decoder_forward", "ofdmlab.cae.model", "DecoderNet.forward"),
    ("cae.transmit", "ofdmlab.cae.pipeline", "CaeSystem.transmit"),
    ("cae.receive", "ofdmlab.cae.pipeline", "CaeSystem.receive"),
    ("cae.losses", "ofdmlab.cae.losses", "loss_reconstruction"),
    ("cae.losses", "ofdmlab.cae.losses", "loss_papr"),
    ("cae.losses", "ofdmlab.cae.losses", "loss_acpr"),
    ("cae.losses", "ofdmlab.cae.losses", "total_loss"),
    ("cae.make_batch", "ofdmlab.cae.training", "make_batch"),
    ("cae.load_system", "ofdmlab.cae.training", "load_system"),
    ("baselines.clip_and_filter", "ofdmlab.baselines", "clip_and_filter"),
    ("baselines.slm_encode", "ofdmlab.baselines", "slm_encode"),
    ("baselines.mle_detect", "ofdmlab.baselines", "mle_detect"),
    ("baselines.zf_detect", "ofdmlab.baselines", "zf_detect"),
    ("dsp.idft_oversampled", "ofdmlab.dsp", "idft_oversampled"),
    ("dsp.dft_unpad", "ofdmlab.dsp", "dft_unpad"),
    ("dsp.papr_mimo", "ofdmlab.dsp", "papr_mimo"),
    ("dsp.estimate_psd", "ofdmlab.dsp", "estimate_psd"),
    ("rf.bandpass_filter", "ofdmlab.rf", "bandpass_filter"),
    ("rf.apply_ibo", "ofdmlab.rf", "apply_ibo"),
    ("rf.rapp_amplify", "ofdmlab.rf", "rapp_amplify"),
    ("rf.bussgang_alpha", "ofdmlab.rf", "bussgang_alpha"),
    ("rf.acpr", "ofdmlab.rf", "acpr"),
    ("channel.draw_channel", "ofdmlab.channel", "draw_channel"),
    ("channel.apply_channel", "ofdmlab.channel", "apply_channel"),
    ("modulation.ofdm_grid_random", "ofdmlab.modulation", "OfdmGrid.random"),
    ("modulation.symbols_to_bits", "ofdmlab.modulation", "symbols_to_bits"),
    ("harness", "ofdmlab.harness", "run_ber"),
    ("harness", "ofdmlab.harness", "run_ccdf"),
    ("harness", "ofdmlab.harness", "run_psd"),
    ("harness", "ofdmlab.harness", "run_acpr_obo"),
    ("config.load", "ofdmlab.config", "load_config"),
]

# (op family, calling module, name bound there); "ACTIVATIONS.selu" is the
# table entry the encoder and decoder read their activation from.
OP_TARGETS = [
    ("conv2d", "ofdmlab.cae.model", "conv2d"),
    ("linear", "ofdmlab.cae.model", "linear"),
    ("batch_norm", "ofdmlab.autodiff.layers", "batch_norm"),
    ("selu", "ofdmlab.autodiff.layers", "ACTIVATIONS.selu"),
    ("softmax_nll", "ofdmlab.cae.losses", "softmax_nll"),
    ("matmul.dft", "ofdmlab.cae.complexpair", "matmul"),
]

OP_LABELS = ["conv2d.enc1", "conv2d.enc2", "conv2d.enc3", "conv2d.dec_a",
             "conv2d.dec_b", "linear.enc_fc", "linear.dec_fc", "batch_norm",
             "selu", "softmax_nll", "matmul.dft"]


def _work_counts(name, args):
    """Computed work of one call, from its argument sizes."""
    if name == "baselines.slm_encode":
        grid, book = args[0], args[1]
        return "idfts", book.n_candidates * grid.symbols.shape[0]
    if name == "baselines.mle_detect":
        chan, order = args[0], args[2]
        return "metric_evals", order ** chan.n_tx * chan.n_subcarriers
    return None


class Tracer:
    """In-memory spans, per-name totals and op-shape counts of one process."""

    def __init__(self, span_cap: int = 20000):
        self.enabled = False
        self.span_cap = span_cap
        self.spans: list[tuple] = []       # (id, parent id, name, start, end)
        self.dropped = 0
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.work: Counter = Counter()      # "<span>.<count>" -> total
        self.op_shapes: Counter = Counter()  # (label, signature) -> calls
        self._stack: list[list] = []        # [id, name, start, child seconds]
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent[0] if parent else None, name, start, end))
        else:
            self.dropped += 1

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            work = _work_counts(name, args)
            if work is not None:
                tracer.work[f"{name}.{work[0]}"] += work[1]
            frame = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)
        return wrapper

    def enclosing(self, prefix: str) -> str | None:
        for frame in reversed(self._stack):
            if frame[1].startswith(prefix):
                return frame[1]
        return None

    # -- op shapes -------------------------------------------------------------

    def _op_label(self, family, args):
        if family not in ("conv2d", "linear"):
            return family
        net = self.enclosing("cae.")
        side = {"cae.encoder_forward": "enc", "cae.decoder_forward": "dec"}.get(net)
        if side is None:
            return None
        if family == "linear":
            return f"linear.{side}_fc"
        from ofdmlab.cae.model import DECODER_CHANNELS, ENCODER_CHANNELS
        c_in = np.shape(getattr(args[1], "values", args[1]))[1]
        if side == "enc":
            names = {1: "enc1", ENCODER_CHANNELS[0]: "enc2", ENCODER_CHANNELS[1]: "enc3"}
        else:
            names = {1: "dec_a", DECODER_CHANNELS[0]: "dec_b"}
        return f"conv2d.{names[c_in]}" if c_in in names else None

    def _op_wrapper(self, family, fn):
        tracer = self
        from ofdmlab.autodiff.tensor import grad_enabled

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                label = tracer._op_label(family, args)
                if label is not None:
                    signature = (tuple(_describe(a) for a in args),
                                 tuple(sorted((k, _describe(v)) for k, v in kwargs.items())),
                                 grad_enabled())
                    tracer.op_shapes[(label, signature)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------------

    @staticmethod
    def _rebind(owner, attr, new):
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self):
        """Wrap every target at each name an ofdmlab module binds it under."""
        for name, module_name, attr in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._rebind(cls, meth, classmethod(self._span_wrapper(name, raw.__func__)))
                else:
                    self._rebind(cls, meth, self._span_wrapper(name, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._span_wrapper(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("ofdmlab"):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, bound, wrapper)
        for family, module_name, attr in OP_TARGETS:
            module = importlib.import_module(module_name)
            if attr.startswith("ACTIVATIONS."):
                table, key = module.ACTIVATIONS, attr.split(".", 1)[1]
                self._rebind(table, key, self._op_wrapper(family, table[key]))
            else:
                self._rebind(module, attr, self._op_wrapper(family, getattr(module, attr)))


def _describe(value):
    """Hashable description of one argument, enough to rebuild a stand-in."""
    from ofdmlab.autodiff.tensor import DiffTensor
    if isinstance(value, DiffTensor):
        return ("tensor", value.values.shape, value.requires_grad)
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu":
            return ("int", value.shape, int(value.max()) + 1 if value.size else 1)
        return ("array", value.shape)
    if isinstance(value, (bool, int, float, str, tuple, type(None))):
        return ("value", value)
    return ("value", repr(value))


def _rebuild(desc, rng):
    from ofdmlab.autodiff.tensor import DiffTensor
    kind = desc[0]
    if kind == "tensor":
        return DiffTensor(rng.standard_normal(desc[1]), requires_grad=desc[2])
    if kind == "int":
        return rng.integers(0, desc[2], size=desc[1])
    if kind == "array":       # running statistics: keep them positive
        return rng.uniform(0.5, 1.5, size=desc[1])
    return desc[1]


def _reps(seconds_each: float, budget: float = 0.05) -> int:
    """Enough repetitions to spend about ``budget`` seconds, within [3, 50]."""
    return max(3, min(50, int(budget / max(seconds_each, 1e-6))))


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def replay_ops(op_shapes: Counter, seed: int) -> dict[str, dict]:
    """Time each recorded op family at its recorded shapes.

    ``fwd_ms`` is the op call under the recorded grad mode. ``bwd_ms`` is
    ``tsum(out).backward()`` minus the same on a leaf of the output's shape,
    paired and repeated; shapes recorded under no_grad ran no backward, so
    they add nothing to it. Each family reports its call-weighted mean per
    call over the shapes it saw.
    """
    from ofdmlab.autodiff import layers, no_grad, tsum
    from ofdmlab.autodiff.tensor import DiffTensor
    from ofdmlab.cae import complexpair, losses, model

    ops = {"conv2d": model.conv2d, "linear": model.linear,
           "batch_norm": layers.batch_norm, "selu": layers.ACTIVATIONS["selu"],
           "softmax_nll": losses.softmax_nll, "matmul.dft": complexpair.matmul}
    rng = np.random.default_rng(seed)
    sums: dict[str, list] = {}
    for (label, (arg_desc, kw_desc, grad_on)), count in sorted(op_shapes.items(), key=repr):
        op = ops[label.split(".")[0] if label.startswith(("conv2d", "linear")) else label]
        args = [_rebuild(d, rng) for d in arg_desc]
        kwargs = {k: _rebuild(d, rng) for k, d in kw_desc}

        def forward(op=op, args=args, kwargs=kwargs):
            return op(*args, **kwargs)

        if grad_on:
            reps = _reps(_seconds(forward))
            fwd = statistics.median(_seconds(forward) for _ in range(reps))
            leaf_shape = np.shape(forward().values)

            def backward_pair():
                loss = tsum(forward())
                spent = _seconds(loss.backward)
                leaf = tsum(DiffTensor(np.ones(leaf_shape), requires_grad=True))
                return spent - _seconds(leaf.backward)

            reps = _reps(backward_pair())
            bwd = statistics.median(backward_pair() for _ in range(reps))
        else:
            with no_grad():
                reps = _reps(_seconds(forward))
                fwd = statistics.median(_seconds(forward) for _ in range(reps))
            bwd = 0.0
        entry = sums.setdefault(label, [0, 0.0, 0, 0.0, []])
        entry[0] += count
        entry[1] += count * fwd
        if grad_on:
            entry[2] += count
            entry[3] += count * bwd
        entry[4].append({"signature": repr((arg_desc, kw_desc, grad_on)), "calls": count,
                         "fwd_ms": 1e3 * fwd, "bwd_ms": 1e3 * bwd if grad_on else None})
    return {label: {"calls": n, "fwd_ms": 1e3 * f / n,
                    "bwd_ms": 1e3 * b / n_grad if n_grad else 0.0, "shapes": shapes}
            for label, (n, f, n_grad, b, shapes) in sums.items()}
