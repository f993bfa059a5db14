"""Dense tensors plus a reverse-mode differentiation tape.

Values are numpy arrays (float32 by default, float64 for gradient
checking). Operations are module-level functions that compute the forward
result eagerly and, when a Tape is active and an input requires a
gradient, record a node whose backward rule routes the upstream gradient
to the inputs. Replaying the nodes in reverse recording order is a valid
topological order because nodes are appended in execution order.

Every op validates that its output is finite (its min and max are finite);
NaN/Inf raises NonFiniteError instead of propagating silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def _ensure_finite(data: np.ndarray, op: str, name: str | None = None) -> None:
    # min and max are two allocation-free passes with no arithmetic to
    # overflow: a NaN propagates through both and an Inf is one of them
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        where = f" (tensor {name!r})" if name else ""
        raise NonFiniteError(f"non-finite values produced by {op}{where}")


class Tensor:
    """A dense N-dimensional value. Immutable by convention after creation."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)
        else:
            np.add(self.grad, g, out=self.grad)

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{label})"


class Parameter(Tensor):
    """A trainable tensor with a canonical dotted-path name.

    The gradient buffer exists from construction (zero-initialized) and
    always matches the value's shape.
    """

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)
        self.grad = np.zeros_like(self.data)


@dataclass
class TapeNode:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class Tape:
    """Ordered record of executed operations for one backward pass.

    Use as a context manager around a forward computation; ``backward``
    seeds the loss gradient and replays nodes newest-first, visiting each
    exactly once and accumulating gradients additively.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def record(self, node: TapeNode) -> None:
        self.nodes.append(node)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.accumulate_grad(np.ones_like(loss.data))
        for node in reversed(self.nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue
            grads = node.backward(out_grad)
            for inp, g in zip(node.inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                inp.accumulate_grad(g)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record_op(
    op: str,
    inputs: Sequence[Tensor],
    out_data: np.ndarray,
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    check_finite: bool = True,
) -> Tensor:
    """Wrap an eagerly computed result and register its backward rule."""
    if check_finite:
        _ensure_finite(out_data, op)
    tape = active_tape()
    needs_grad = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs_grad)
    if needs_grad:
        tape.record(TapeNode(op, tuple(inputs), out, backward))
    return out


# ---------------------------------------------------------------------------
# broadcasting helpers (singleton-axis expansion only, no rank promotion)


def _broadcast_shape(sa: tuple[int, ...], sb: tuple[int, ...], op: str) -> tuple[int, ...]:
    if len(sa) != len(sb):
        raise ShapeError(f"{op}: rank mismatch {sa} vs {sb} (no implicit rank promotion)")
    out = []
    for ea, eb in zip(sa, sb):
        if ea == eb or ea == 1 or eb == 1:
            out.append(max(ea, eb))
        else:
            raise ShapeError(f"{op}: extents {sa} vs {sb} not broadcastable")
    return tuple(out)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    axes = tuple(i for i, e in enumerate(shape) if e == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shape(a.shape, b.shape, "add")
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record_op("add", (a, b), out, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shape(a.shape, b.shape, "sub")
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record_op("sub", (a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shape(a.shape, b.shape, "mul")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def backward(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return record_op("mul", (a, b), out, backward)


def scale(x: Tensor, c: float) -> Tensor:
    """x * c. A numpy float64 c would promote float32 x, so c is applied as a
    Python float and the output keeps x's dtype."""
    c = float(c)
    out = x.data * c

    def backward(g):
        return (g * c,)

    return record_op("scale", (x,), out, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [..., n, k] @ [..., k, m]; leading dims must match."""
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim:
        raise ShapeError(f"matmul: ranks {a.ndim} and {b.ndim} unsupported")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.shape} @ {b.shape} incompatible")
    out = np.matmul(a.data, b.data)
    ad, bd = a.data, b.data

    def backward(g):
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        gb = np.matmul(ad.swapaxes(-1, -2), g)
        return ga, gb

    return record_op("matmul", (a, b), out, backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)
    old = x.shape

    def backward(g):
        return (g.reshape(old),)

    return record_op("reshape", (x,), out, backward, check_finite=False)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return record_op("transpose", (x,), out, backward, check_finite=False)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along one axis; the axis is removed from the shape."""
    if not (0 <= axis < x.ndim):
        raise ShapeError(f"mean_axis: axis {axis} out of range for rank {x.ndim}")
    n = x.shape[axis]
    out = x.data.mean(axis=axis)

    def backward(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return record_op("mean_axis", (x,), out, backward)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)
    shp = x.shape

    def backward(g):
        return (np.broadcast_to(g, shp),)

    return record_op("sum_all", (x,), out, backward)


def mean_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.mean(), dtype=x.dtype)
    shp, n = x.shape, x.size

    def backward(g):
        return (np.broadcast_to(g / n, shp),)

    return record_op("mean_all", (x,), out, backward)


def expand(x: Tensor, axis: int, n: int) -> Tensor:
    """Insert a new axis of extent n at `axis` by replication."""
    if not (0 <= axis <= x.ndim):
        raise ShapeError(f"expand: axis {axis} out of range for rank {x.ndim}")
    out = np.broadcast_to(
        np.expand_dims(x.data, axis), x.shape[:axis] + (n,) + x.shape[axis:]
    )

    def backward(g):
        return (g.sum(axis=axis),)

    return record_op("expand", (x,), out, backward, check_finite=False)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (axis 1); other extents must match."""
    if a.ndim != b.ndim or a.ndim < 2:
        raise ShapeError(f"concat_channels: ranks {a.ndim} vs {b.ndim}")
    if a.shape[:1] + a.shape[2:] != b.shape[:1] + b.shape[2:]:
        raise ShapeError(f"concat_channels: non-channel extents differ, {a.shape} vs {b.shape}")
    out = np.concatenate((a.data, b.data), axis=1)
    ca = a.shape[1]

    def backward(g):
        return g[:, :ca], g[:, ca:]

    return record_op("concat_channels", (a, b), out, backward, check_finite=False)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Per-parameter max relative error of tape gradients vs central differences."""

    per_parameter: dict[str, float] = field(default_factory=dict)
    tolerance: float = 1e-4
    step: float = 1e-4
    samples_per_parameter: int = 200

    @property
    def max_rel_err(self) -> float:
        return max(self.per_parameter.values()) if self.per_parameter else 0.0

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def __str__(self) -> str:
        lines = [
            f"{name}: {err:.3e}" for name, err in sorted(self.per_parameter.items())
        ]
        lines.append(f"max: {self.max_rel_err:.3e} (tol {self.tolerance:.0e})")
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    h: float = 1e-4,
    tol: float = 1e-4,
    rng: np.random.Generator | None = None,
    samples_per_parameter: int = 200,
) -> GradCheckReport:
    """Compare tape gradients of the scalar f() against central differences.

    f must be deterministic and evaluated in 64-bit; for each parameter,
    up to `samples_per_parameter` elements are probed (all of them when the
    parameter is small). Relative error is
    |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|).
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters, {p.name!r} is {p.dtype}")
        p.zero_grad()

    with Tape() as tape:
        y = f()
    if y.size != 1:
        raise ShapeError("grad_check target must be scalar-valued")
    tape.backward(y)
    ad_grads = {id(p): np.array(p.grad) for p in params}

    report = GradCheckReport(tolerance=tol, step=h, samples_per_parameter=samples_per_parameter)
    for k, p in enumerate(params):
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= samples_per_parameter:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=samples_per_parameter, replace=False)
        ad = ad_grads[id(p)].reshape(-1)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f().data)
            flat[i] = orig - h
            f_minus = float(f().data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(ad[i] - fd) / max(1e-8, abs(ad[i]) + abs(fd))
            worst = max(worst, rel)
        report.per_parameter[p.name or f"param{k}"] = worst
    return report
