"""Minimal dense-network engine: forward pass, exact reverse-mode gradients, Adam.

Everything is double precision numpy. Networks are plain stacks of affine
layers with ELU on hidden layers and an identity output layer, which is all
the model architecture needs.

Each net keeps all its parameters in one flat C-ordered vector, theta, laid
out as [W0, b0, W1, b1, ...] with each array raveled in C order; the weight
and bias arrays are views into it. backward returns its parameter gradients
as one flat vector of the same layout (into a caller's buffer when given),
and Adam updates theta in place.

Training steps and inference share one worker thread per process (_worker
decides when, _beside hands a job over); every number is the same with it
and without it.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

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
    dimensions must chain. The constructor copies its inputs into theta, the
    flat parameter vector [W0, b0, W1, b1, ...]; weights, biases and params()
    are views into theta, so writing to them moves the net.
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
        arrays = [a for pair in zip(weights, biases) for a in pair]
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._layout = [(end - a.size, end, a.shape) for a, end in zip(arrays, ends)]
        self.theta = np.concatenate([a.ravel() for a in arrays])
        views = self.split(self.theta)
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def split(self, flat):
        """Views of a flat vector laid out like theta, as [W0, b0, W1, b1, ...]."""
        return [flat[lo:hi].reshape(shape) for lo, hi, shape in self._layout]

    def params(self):
        """Parameter list [W0, b0, W1, b1, ...]: views into theta, not copies."""
        return self.split(self.theta)

    def copy(self) -> "DenseNet":
        return DenseNet(self.weights, self.biases)

    def forward(self, x, tape=True):
        """Run the net on a batch x of shape (n, in_dim).

        Returns (output, tape). The tape holds per-layer (input, pre-activation)
        pairs and is what backward() replays. With tape=False None is returned
        in its place, and each layer's input and pre-activation are freed as
        soon as the next array is computed, so at most two layer-sized arrays
        are alive at once.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input width {x.shape[1]} != {self.in_dim}")
        layers = [] if tape else None
        h = x
        last = self.n_layers - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = h @ w.T
            pre += b
            if layers is not None:
                layers.append((h, pre))
            h = pre
            del pre
            if k != last:
                h = elu(h)
        return h, layers

    def backward(self, tape, upstream, input_grad=True, out=None):
        """Exact gradients of a scalar with d(scalar)/d(output) = upstream.

        Returns (grad, input_grad). grad is a flat vector laid out like theta,
        written into out when given (which is then returned) and newly
        allocated otherwise; split(grad) gives the per-array gradients. With
        input_grad=False the first layer's input gradient, one GEMM the size
        of that layer, is not computed and None is returned in its place.
        """
        upstream = np.asarray(upstream, dtype=float)
        if len(tape) != self.n_layers:
            raise ValueError("tape does not match network depth")
        n = tape[0][0].shape[0]
        if upstream.shape != (n, self.out_dim):
            raise ValueError(f"upstream shape {upstream.shape} != ({n}, {self.out_dim})")
        if out is None:
            out = np.empty_like(self.theta)
        elif out.shape != self.theta.shape or out.dtype != self.theta.dtype:
            raise ValueError(f"out must be a float64 vector of length {self.theta.size}")
        views = self.split(out)
        g = upstream
        last = self.n_layers - 1
        for k in range(last, -1, -1):
            h_in, pre = tape[k]
            if k == last:
                d_pre = g
            else:
                d_pre = elu_grad(pre)
                d_pre *= g
            np.matmul(d_pre.T, h_in, out=views[2 * k])
            d_pre.sum(axis=0, out=views[2 * k + 1])
            g = d_pre @ self.weights[k] if k or input_grad else None
        return out, g


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


# Adam updates the flat vectors in slices of this many bytes, so that the
# handful of arrays one slice touches stays in cache between the passes.
_BLOCK_BYTES = 256 * 1024


@dataclass
class AdamState:
    """Adam accumulators of one flat parameter vector.

    m and v have the vector's layout, and so has grad, a buffer for the
    gradient of each step (DenseNet.backward's out); scratch holds two
    slices' worth of temporaries.
    """

    alpha: float
    beta1: float
    beta2: float
    eps: float
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray = field(repr=False)
    scratch: np.ndarray = field(repr=False)
    step: int = 0


def adam_init(theta, alpha=1e-3, beta1=0.8, beta2=0.95, eps=1e-8) -> AdamState:
    size = np.size(theta)
    return AdamState(alpha, beta1, beta2, eps, m=np.zeros(size), v=np.zeros(size),
                     grad=np.empty(size),
                     scratch=np.empty((2, min(size, _BLOCK_BYTES // 8))))


def adam_step(state: AdamState, theta, grad):
    """One bias-corrected Adam update, in place on the flat vector theta.

    Every entry is computed as m = beta1 m + (1 - beta1) g,
    v = beta2 v + ((1 - beta2) g) g and
    p -= alpha (m / bc1) / (sqrt(v / bc2) + eps), in that operation order,
    one _BLOCK_BYTES slice of theta at a time. Raises FloatingPointError on
    any non-finite gradient entry, before any parameter or accumulator moves.
    """
    if theta.shape != state.m.shape or np.shape(grad) != theta.shape:
        raise ValueError("parameter / gradient / state length mismatch")
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient entry in Adam update")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1, 1.0 - b2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    block = _BLOCK_BYTES // 8
    for lo in range(0, theta.size, block):
        part = slice(lo, lo + block)
        g, m, v = grad[part], state.m[part], state.v[part]
        t1, t2 = state.scratch[:, :g.size]
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
        theta[part] -= t1


@functools.cache
def _blas_threads():
    """The thread count of NumPy's OpenBLAS, asked once per process; None
    when that library is not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


_WORKER_PREFIX = "dtanet-arm"


@functools.cache
def _executor(pid: int):
    """Process pid's worker thread, started on first use. A forked child
    asks with its own pid: its parent's worker thread does not exist there."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix=_WORKER_PREFIX)


def _worker(work, threshold):
    """The process's worker executor for a job of this much work, or None.

    A second thread pays off only where BLAS runs one thread (at two, each
    GEMM already uses both cores and the threads slow each other down), the
    process may use two CPUs, and the work is nonzero and reaches the
    caller's threshold, below which the hand-over costs more than it saves.
    The worker thread gets None: its one-thread executor would wait on itself.
    """
    if (work < max(threshold, 1) or _blas_threads() != 1
            or threading.current_thread().name.startswith(_WORKER_PREFIX)):
        return None
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return _executor(os.getpid()) if cpus >= 2 else None


@contextmanager
def _beside(worker, fn, *args):
    """Run fn(*args) beside the with-block: on the executor worker while the
    block runs, or, when worker is None, in the calling thread before it.

    On the worker, fn runs in a copy of the caller's context, so the
    caller's np.errstate holds there too. Leaving the block waits for fn
    whatever happened; then fn's exception, if any, is raised, unless the
    block raised its own. Inline, fn's exception is raised before the block
    runs. The with-target is a function that returns fn's result.
    """
    if worker is None:
        result = fn(*args)
        yield lambda: result
        return
    future = worker.submit(contextvars.copy_context().run, fn, *args)
    try:
        yield future.result
    finally:
        future.exception()
    future.result()
