"""Engine-level checks: values against naive oracles, gradients against
finite differences, optimizer arithmetic, checkpoint round trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ofdmlab

from ofdmlab.autodiff import (AdamW, BatchNorm, DiffTensor, conv2d, gelu,
                              linear, load_tensors, no_grad, parameter,
                              save_tensors, selu, softmax_nll, softmax_values,
                              tsum)
from ofdmlab.autodiff.gradcheck import (numerical_gradient, relative_error,
                                        run_all)


class TestBackward:
    def test_quadratic(self):
        w = parameter([1.0, 2.0, 3.0])
        loss = tsum(w * w)
        loss.backward()
        assert np.allclose(w.grad, [2.0, 4.0, 6.0])

    def test_constant_loss_leaves_grads_empty(self):
        w = parameter([1.0, 2.0])
        loss = tsum(DiffTensor([3.0, 4.0]))
        loss.backward()
        assert w.grad is None

    def test_non_scalar_rejected(self):
        w = parameter([1.0, 2.0])
        with pytest.raises(ValueError):
            (w * w).backward()

    def test_three_layer_network_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        x = DiffTensor(rng.standard_normal((4, 5)))
        w1 = parameter(rng.standard_normal((6, 5)) / np.sqrt(5))
        b1 = parameter(rng.standard_normal(6) * 0.1)
        w2 = parameter(rng.standard_normal((3, 6)) / np.sqrt(6))
        b2 = parameter(rng.standard_normal(3) * 0.1)
        w3 = parameter(rng.standard_normal((1, 3)))

        def loss_fn():
            h = selu(linear(x, w1, b1))
            h = gelu(linear(h, w2, b2))
            return tsum(linear(h, w3) ** 2.0)

        loss = loss_fn()
        loss.backward()
        params = [w1, b1, w2, b2, w3]
        analytic = [np.array(p.grad) for p in params]
        numeric = numerical_gradient(lambda: float(loss_fn().values),
                                     [p.values for p in params])
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n) < 1e-5

    def test_shared_subexpression_accumulates(self):
        w = parameter([2.0])
        y = w * w      # used twice below
        loss = tsum(y + y)
        loss.backward()
        assert np.allclose(w.grad, [8.0])

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = DiffTensor(rng.standard_normal((3, 4)))
            w = parameter(rng.standard_normal((2, 4)))
            loss = tsum(selu(linear(x, w)) ** 2.0)
            loss.backward()
            return loss.values.copy(), w.grad.copy()
        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(1)
        x = DiffTensor(rng.standard_normal((1, 3, 5)))
        w = parameter(np.eye(1).reshape(1, 1, 1, 1))
        out = conv2d(x, w, parameter(np.zeros(1)))
        assert np.allclose(out.values, x.values)

    def test_zero_input_gives_bias(self):
        x = DiffTensor(np.zeros((2, 1, 3, 4)))
        w = parameter(np.ones((2, 1, 3, 3)))
        b = parameter(np.array([1.5, -0.5]))
        out = conv2d(x, w, b, padding=(1, 1))
        assert np.allclose(out.values[:, 0], 1.5)
        assert np.allclose(out.values[:, 1], -0.5)

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(2)
        x = DiffTensor(rng.standard_normal((1, 1, 8)))
        w = parameter(rng.standard_normal((1, 1, 1, 3)))
        out = conv2d(x, w, None)
        expected = [np.dot(x.values[0, 0, i:i + 3], w.values[0, 0, 0]) for i in range(6)]
        assert np.allclose(out.values[0, 0], expected)

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(3)
        w = parameter(rng.standard_normal((2, 3, 3, 3)))
        x1 = rng.standard_normal((1, 3, 6, 6))
        x2 = rng.standard_normal((1, 3, 6, 6))
        for a, b in [(2.0, -1.0), (0.3, 0.7)]:
            lhs = conv2d(DiffTensor(a * x1 + b * x2), w, None).values
            rhs = a * conv2d(DiffTensor(x1), w, None).values \
                + b * conv2d(DiffTensor(x2), w, None).values
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_kernel_too_large_rejected(self):
        x = DiffTensor(np.zeros((1, 1, 2, 2)))
        w = parameter(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ValueError):
            conv2d(x, w, None)


class TestActivations:
    def test_selu_fixed_points(self):
        assert selu(DiffTensor(0.0)).values == 0.0
        assert abs(selu(DiffTensor(1.0)).values - 1.0507009873554805) < 1e-12

    def test_gelu_values(self):
        # x * Phi(x) at a few reference points
        x = DiffTensor(np.array([0.0, 1.0, -1.0]))
        out = gelu(x).values
        assert abs(out[0]) < 1e-15
        assert abs(out[1] - 0.8413447460685429) < 1e-12
        assert abs(out[2] + 0.15865525393145707) < 1e-12

    def test_import_leaves_scipy_unloaded(self):
        # scipy.special is most of the import time and only GELU needs it
        src = str(Path(ofdmlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = "import sys, ofdmlab; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("point", [0.5, -0.5])
    def test_gradients_at_half(self, point):
        for act in (selu, gelu):
            x = parameter([point])
            loss = tsum(act(x))
            loss.backward()
            numeric = numerical_gradient(lambda: float(tsum(act(x)).values), [x.values])[0]
            assert relative_error(np.array(x.grad), numeric) < 1e-6


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm(3)
        x = DiffTensor(rng.standard_normal((16, 3, 4, 5)) * 3.0 + 1.0)
        out = bn(x, train=True).values
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4

    def test_eval_identity_with_unit_stats(self):
        bn = BatchNorm(2)
        x = DiffTensor(np.random.default_rng(5).standard_normal((4, 2)))
        out = bn(x, train=False).values
        assert np.abs(out - x.values).max() < 1e-5

    def test_train_needs_batch(self):
        bn = BatchNorm(2)
        with pytest.raises(ValueError):
            bn(DiffTensor(np.zeros((1, 2))), train=True)


class TestSoftmaxNll:
    def test_uniform_logits(self):
        logits = DiffTensor(np.zeros((2, 4)))
        loss = softmax_nll(logits, np.array([1, 3]))
        assert abs(loss.values - 2 * np.log(4)) < 1e-12

    def test_confident_correct_prediction(self):
        logits = np.zeros((1, 3))
        logits[0, 2] = 50.0
        loss = softmax_nll(DiffTensor(logits), np.array([2]))
        assert loss.values < 1e-12

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(6)
        logits = parameter(rng.standard_normal((3, 4)))
        targets = np.array([0, 2, 3])
        loss = softmax_nll(logits, targets)
        loss.backward()
        expected = softmax_values(logits.values)
        for i, t in enumerate(targets):
            expected[i, t] -= 1.0
        assert np.abs(logits.grad - expected).max() < 1e-12
        numeric = numerical_gradient(
            lambda: float(softmax_nll(logits, targets).values), [logits.values])[0]
        assert relative_error(np.array(logits.grad), numeric) < 1e-6

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        probs = softmax_values(rng.standard_normal((5, 6, 4)) * 10)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12

    def test_target_range_checked(self):
        with pytest.raises(ValueError):
            softmax_nll(DiffTensor(np.zeros((2, 3))), np.array([0, 3]))


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = parameter([1.0, -2.0])
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.values, [1.0, -2.0])

    def test_single_step_hand_computed(self):
        lr, b1, b2, eps, wd = 0.001, 0.9, 0.999, 1e-8, 0.01
        g = np.array([0.3, -1.2])
        p0 = np.array([0.5, 0.25])
        p = parameter(p0.copy())
        opt = AdamW({"p": p}, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        p.grad = g.copy()
        opt.step()
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected = p0 * (1 - lr * wd) - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.abs(p.values - expected).max() < 1e-12

    def test_constant_gradient_step_envelope(self):
        p = parameter([0.0])
        lr, b1 = 0.01, 0.9
        opt = AdamW({"p": p}, lr=lr, betas=(b1, 0.999), weight_decay=0.0)
        prev = p.values.copy()
        for _ in range(200):
            p.grad = np.array([2.5])
            opt.step()
            delta = abs(p.values[0] - prev[0])
            assert delta <= lr / (1 - b1) + 1e-12
            prev = p.values.copy()

    def test_shape_mismatch_rejected(self):
        p = parameter([1.0, 2.0])
        opt = AdamW({"p": p})
        p.grad = np.zeros(3)
        with pytest.raises(ValueError):
            opt.step()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        tensors = {
            "a/w": rng.standard_normal((3, 4)),
            "a/b": rng.standard_normal(3),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "ckpt.bin"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"nope" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_tensors(path)


class TestGradcheckHarness:
    def test_all_layers_pass(self):
        results = run_all(seed=123)
        for r in results:
            assert r.passed, f"{r.name}: {r.max_relative_error}"

    def test_corrupted_backward_detected(self, biased_conv2d):
        results = run_all(seed=123)
        conv = [r for r in results if r.name == "conv2d"][0]
        assert not conv.passed


class TestNoGrad:
    def test_inference_mode_skips_tape(self):
        w = parameter([1.0, 2.0])
        with no_grad():
            out = tsum(w * w)
        assert out._parents == () and not out.requires_grad
