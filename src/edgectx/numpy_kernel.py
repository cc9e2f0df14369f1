"""The numpy kernel of ``edgectx.nn``: one network's forward pass, deltas
and SGD step on numpy arrays, written in place into buffers allocated once
per kernel.

``nn`` stores parameters as a flat tuple of floats and imports this module
only for the networks its cost model puts on numpy and for its array
helpers, so a process that decodes bundles and predicts on the list kernel
never imports numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .nn import _SIG_HI, _SIG_LO, NetworkParameters, _layer_views

# (0, -1, 1, lower clip, upper clip): the constants of ``sigmoid_into``
SIG_SCALARS = (0.0, -1.0, 1.0, _SIG_LO, _SIG_HI)


@lru_cache(maxsize=64)
def sigmoid_consts(width: int) -> tuple[np.ndarray, ...]:
    """``SIG_SCALARS`` as read-only arrays of ``width`` elements; a ufunc
    takes an array operand faster than a Python float."""
    consts = tuple(np.full(width, c) for c in SIG_SCALARS)
    for c in consts:
        c.setflags(write=False)
    return consts


def sigmoid_into(z: np.ndarray, mask: np.ndarray, den: np.ndarray, consts) -> None:
    """Overwrite ``z`` with its sigmoid, using ``mask`` and ``den`` as scratch.

    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, clipped to
    (``_SIG_LO``, ``_SIG_HI``): exp only ever sees -|z|, so it cannot
    overflow.
    """
    zero, neg_one, one, lo, hi = consts
    np.greater_equal(z, zero, out=mask)
    np.copysign(z, neg_one, out=z)
    np.exp(z, out=z)
    np.add(one, z, out=den)
    np.copyto(z, one, where=mask)
    np.divide(z, den, out=z)
    np.maximum(z, lo, out=z)
    np.minimum(z, hi, out=z)


class ArrayKernel:
    """The numpy kernel for one network: every pass writes into buffers made
    with the kernel, so a sample allocates no array.

    ``acts`` holds the input and each layer's output. With ``gradients``,
    ``backward`` writes each layer's deltas into its bias-gradient view of
    the flat ``grad`` buffer and its weight gradients next to them. With
    ``trainable``, the kernel also owns a writable flat copy of the
    parameters (``theta``, laid out like ``grad``) and ``step`` updates it.
    Buffers are never shared: a kernel belongs to one call.
    """

    def __init__(self, params: NetworkParameters, *, gradients: bool = False,
                 trainable: bool = False) -> None:
        sizes = params.spec.layer_sizes
        if trainable:
            self.theta = np.array(params.flat)
            self.weights, self.biases = _layer_views(self.theta, sizes)
        else:
            self.weights, self.biases = params.weights, params.biases
        widths = sizes[1:]
        # (mask, scratch, sigmoid constants) per width: a pass finishes with
        # one layer before it starts the next, so layers of a width share them
        scratch = {n: (np.empty(n, dtype=bool), np.empty(n), sigmoid_consts(n))
                   for n in set(widths)}
        self.acts = [None, *(np.empty(n) for n in widths)]
        self._scratch = [scratch[n] for n in widths]
        self._layers = [
            (w, b, z, *scratch[n])
            for w, b, z, n in zip(self.weights, self.biases, self.acts[1:], widths)
        ]
        if gradients or trainable:
            self.grad = np.empty(params.weight_count)
            self.weight_grads, self.bias_grads = _layer_views(self.grad, sizes)
            self._delta_cols = [d[:, None] for d in self.bias_grads]
            self._weights_t = [w.T for w in self.weights]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Fill ``acts`` for input ``x``; returns the final layer's output."""
        self.acts[0] = prev = x
        for w, b, z, mask, den, consts in self._layers:
            np.matmul(w, prev, out=z)
            z += b
            sigmoid_into(z, mask, den, consts)
            prev = z
        return prev

    def backward(self, target: np.ndarray) -> None:
        """dE/dnet of each layer into ``bias_grads`` and dE/dw into
        ``weight_grads``, for the activations ``forward`` left in ``acts``."""
        acts, deltas, scratch = self.acts, self.bias_grads, self._scratch
        final, delta = acts[-1], deltas[-1]
        _, tmp, (_, _, one, _, _) = scratch[-1]
        # (o - t) * o * (1 - o), then (W^T d) * a * (1 - a) back through
        # the hidden layers
        np.subtract(final, target, out=delta)
        delta *= final
        np.subtract(one, final, out=tmp)
        delta *= tmp
        for l in range(len(deltas) - 1, 0, -1):
            prev, delta = acts[l], deltas[l - 1]
            _, tmp, (_, _, one, _, _) = scratch[l - 1]
            np.matmul(self._weights_t[l], deltas[l], out=delta)
            delta *= prev
            np.subtract(one, prev, out=tmp)
            delta *= tmp
        for col, prev, gw in zip(self._delta_cols, acts, self.weight_grads):
            np.multiply(col, prev, out=gw)

    def step(self, x: np.ndarray, target: np.ndarray, lr: float) -> float:
        """One in-place SGD update of ``theta``; returns the sample's loss.
        Each parameter becomes p - (delta * input) * lr, the bits of
        ``apply_update``'s p - lr * (delta * input)."""
        final = self.forward(x)
        tmp = self._scratch[-1][1]
        np.subtract(target, final, out=tmp)
        tmp *= tmp
        loss = 0.5 * float(tmp.sum())
        self.backward(target)
        grad = self.grad
        grad *= lr
        self.theta -= grad
        return loss
