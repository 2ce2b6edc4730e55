"""Shared fixtures."""

import pytest


@pytest.fixture
def biased_conv2d(monkeypatch):
    """``autodiff.layers.conv2d`` whose tape node passes 1.01 g back: a known-wrong gradient.

    The forward values stay exact, so finite differences see the true
    gradient and a gradient check must flag conv2d.
    """
    from ofdmlab.autodiff import layers
    exact = layers.conv2d

    def conv2d(*args, **kwargs):
        out = exact(*args, **kwargs)
        backward = out._backward_fn
        out._backward_fn = lambda g: backward(g * 1.01)
        return out

    monkeypatch.setattr(layers, "conv2d", conv2d)
