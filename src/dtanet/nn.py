"""Minimal dense-network engine: forward pass, exact reverse-mode gradients, Adam.

Everything is double precision numpy. Networks are plain stacks of affine
layers with ELU on hidden layers and an identity output layer, which is all
the model architecture needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def elu(x):
    """ELU activation (alpha=1): x for x >= 0, exp(x)-1 otherwise.

    Computed as max(expm1(min(x, 0)), x) in one buffer: three passes and no
    boolean mask, whose select costs more than all three. expm1(x) >= x for
    x < 0, and max keeps the sign of -0.0 and any NaN, so every float64 gets
    the bits of np.where(x >= 0, x, expm1(x)).
    """
    x = np.asarray(x, dtype=float)
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.expm1(out, out=out)
    return np.maximum(out, x, out=out)


def elu_grad(x):
    """Derivative of elu; 1 at x=0 by convention.

    exp(min(x, 0)): for x >= 0 that is exp(+-0.0), exactly 1.
    """
    x = np.asarray(x, dtype=float)
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    return np.exp(out, out=out)


class DenseNet:
    """Stack of affine layers, ELU on hidden layers, identity on the output.

    Weight matrices are (out, in); biases are (out,). Consecutive layer
    dimensions must chain.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, nonempty weight and bias lists")
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if k > 0 and weights[k - 1].shape[0] != w.shape[1]:
                raise ValueError(f"layer {k}: dimensions do not chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k}: non-finite parameters")
        self.weights = weights
        self.biases = biases

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def params(self):
        """Flat parameter list [W0, b0, W1, b1, ...] (views, not copies)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "DenseNet":
        return DenseNet([w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])

    def forward(self, x):
        """Run the net on a batch x of shape (n, in_dim).

        Returns (output, tape). The tape holds per-layer (input, pre-activation)
        pairs and is what backward() replays.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input width {x.shape[1]} != {self.in_dim}")
        tape = []
        h = x
        last = self.n_layers - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = h @ w.T
            pre += b
            tape.append((h, pre))
            h = pre if k == last else elu(pre)
        return h, tape

    def backward(self, tape, upstream, input_grad=True):
        """Exact gradients of a scalar with d(scalar)/d(output) = upstream.

        Returns (param_grads, input_grad) where param_grads matches params().
        With input_grad=False the first layer's input gradient, one GEMM the
        size of that layer, is not computed and None is returned in its place.
        """
        upstream = np.asarray(upstream, dtype=float)
        if len(tape) != self.n_layers:
            raise ValueError("tape does not match network depth")
        n = tape[0][0].shape[0]
        if upstream.shape != (n, self.out_dim):
            raise ValueError(f"upstream shape {upstream.shape} != ({n}, {self.out_dim})")
        grads = [None] * (2 * self.n_layers)
        g = upstream
        last = self.n_layers - 1
        for k in range(last, -1, -1):
            h_in, pre = tape[k]
            if k == last:
                d_pre = g
            else:
                d_pre = elu_grad(pre)
                d_pre *= g
            grads[2 * k] = d_pre.T @ h_in
            grads[2 * k + 1] = d_pre.sum(axis=0)
            g = d_pre @ self.weights[k] if k or input_grad else None
        return grads, g


def init_dense(dims, rng: np.random.Generator) -> DenseNet:
    """Glorot-uniform weights, zero biases, for layer sizes dims[0] -> dims[-1]."""
    if len(dims) < 2:
        raise ValueError("need at least an input and an output dimension")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNet(weights, biases)


# Adam updates its flat state in blocks of about this size, so that the
# handful of arrays one block touches stays in cache between the passes.
_BLOCK_BYTES = 256 * 1024


class _Block:
    """Parameters first..stop-1 of a bundle, laid out at m[lo:hi] and v[lo:hi].

    A block of several parameters gathers their gradients into g; a block
    of one parameter reads its gradient in place (g is None).
    """

    __slots__ = ("first", "stop", "m", "v", "g", "t1", "t2", "offsets")

    def __init__(self, first, stop, lo, hi, m, v, g, t1, t2, offsets):
        self.first, self.stop = first, stop
        self.m, self.v, self.g = m[lo:hi], v[lo:hi], g
        self.t1, self.t2 = t1[:hi - lo], t2[:hi - lo]
        self.offsets = offsets


@dataclass
class AdamState:
    """Per-bundle Adam accumulators.

    m and v are flat: the parameters' entries in list order, each parameter
    raveled in C order. blocks holds the update layout and its scratch.
    """

    alpha: float = 1e-3
    beta1: float = 0.8
    beta2: float = 0.95
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    blocks: list = field(default_factory=list, repr=False)


def adam_init(params, alpha=1e-3, beta1=0.8, beta2=0.95, eps=1e-8) -> AdamState:
    sizes = [np.size(p) for p in params]
    limit = _BLOCK_BYTES // 8
    groups = []                      # [first, stop, length] of each block
    for i, size in enumerate(sizes):
        if groups and groups[-1][2] + size <= limit:
            groups[-1][1] = i + 1
            groups[-1][2] += size
        else:
            groups.append([i, i + 1, size])
    total = sum(sizes)
    m, v = np.zeros(total), np.zeros(total)
    longest = max((n for _, _, n in groups), default=0)
    t1, t2 = np.empty(longest), np.empty(longest)
    gathered = np.empty(sum(n for first, stop, n in groups if stop - first > 1))
    blocks, lo, g_lo = [], 0, 0
    for first, stop, n in groups:
        g = None
        if stop - first > 1:
            g = gathered[g_lo:g_lo + n]
            g_lo += n
        offsets = np.cumsum([0] + sizes[first:stop]).tolist()
        blocks.append(_Block(first, stop, lo, lo + n, m, v, g, t1, t2, offsets))
        lo += n
    return AdamState(alpha=alpha, beta1=beta1, beta2=beta2, eps=eps, step=0,
                     m=m, v=v, blocks=blocks)


def adam_step(state: AdamState, params, grads):
    """One bias-corrected Adam update, in place on params.

    Every entry is computed as m = beta1 m + (1 - beta1) g,
    v = beta2 v + ((1 - beta2) g) g and
    p -= alpha (m / bc1) / (sqrt(v / bc2) + eps), in that operation order.
    Raises FloatingPointError on any non-finite gradient entry, before any
    parameter or accumulator moves.
    """
    n_params = state.blocks[-1].stop if state.blocks else 0
    if len(params) != n_params or len(grads) != len(params):
        raise ValueError("parameter / gradient / state length mismatch")
    flat = []
    for blk in state.blocks:
        if blk.g is None:
            g = np.ravel(grads[blk.first])
        else:
            g = np.concatenate([np.ravel(grads[i]) for i in range(blk.first, blk.stop)],
                               out=blk.g)
        if g.shape != blk.m.shape:
            raise ValueError("gradient shapes do not match the parameters")
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient entry in Adam update")
        flat.append(g)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1, 1.0 - b2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for blk, g in zip(state.blocks, flat):
        m, v, t1, t2 = blk.m, blk.v, blk.t1, blk.t2
        m *= b1
        np.multiply(g, c1, out=t1)
        m += t1
        v *= b2
        np.multiply(g, c2, out=t1)
        t1 *= g
        v += t1
        np.divide(m, bc1, out=t1)
        t1 *= state.alpha
        np.divide(v, bc2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += state.eps
        t1 /= t2
        off = blk.offsets
        for k, i in enumerate(range(blk.first, blk.stop)):
            p = params[i]
            p -= t1[off[k]:off[k + 1]].reshape(p.shape)
    return params, state
