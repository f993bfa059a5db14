"""Dense tensors plus a reverse-mode differentiation tape.

Values are numpy arrays: float32, or float64 for gradient checking, where
a model built in float32 is converted by ``Module.astype``. Operations are
module-level functions that compute the forward result eagerly and, when a
Tape is active and an input requires a gradient, record a node whose
backward rule routes the upstream gradient to the inputs. Replaying the
nodes in reverse recording order is a valid topological order because
nodes are appended in execution order.

The layers in nn, attention and block record their own fused ops; the ones
here join them (add of equal shapes, reshape, transpose, mean_axis and
concat_channels), and ``probe`` is the linear loss of gradient checks.

A node holds only what its backward reads. Its output is a GradCell (the
output's shape, dtype and gradient, not its value) and its inputs are the
inputs' cells, or the Tensors themselves for leaves and Parameters, so a
recorded output's data is freed once the caller drops it unless a backward
rule captured it. Backward consumes the tape: each node is popped before
it is replayed and its output's gradient dropped once read, so a node's
closure and gradient are freed as soon as every consumer has replayed;
only leaf tensors and Parameters keep their ``.grad``.

Every op validates that its output is finite (its min and max are finite);
NaN/Inf raises NonFiniteError instead of propagating silently, naming the
module of the op's first named Parameter input, if it has one.
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


def _ensure_finite(data: np.ndarray, op: str, inputs: Sequence[Tensor]) -> None:
    """Raise NonFiniteError naming `op` and the module of its first named
    Parameter input: `block1.spectral_conv` for `block1.spectral_conv.weight`
    (a name without a dot is kept whole)."""
    # min and max are two allocation-free passes with no arithmetic to
    # overflow: a NaN propagates through both and an Inf is one of them
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        names = [t.name for t in inputs if isinstance(t, Parameter) and t.name]
        where = f" in {names[0].rpartition('.')[0] or names[0]}" if names else ""
        raise NonFiniteError(f"non-finite values produced by {op}{where}")


def _stand_in(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A read-only zero-stride array of zeros in `shape` and `dtype`: a
    value's shape and dtype without its bytes."""
    return np.broadcast_to(np.dtype(dtype).type(0), shape)


class Tensor:
    """A dense N-dimensional value. Immutable by convention after creation,
    with one exception: a tensor whose `regenerate` is set, a function of
    a batch slice that returns data[slice] anew (set by nn._Conv and
    nn.BatchNorm on their outputs), may be released by the last forward
    reader of its whole array. `release` then swaps its data for a
    stand-in (an eval conv's output is one from the start), and later
    readers, forward or backward, read it through `regenerate` a batch
    chunk at a time. No other tensor is ever released."""

    __slots__ = ("data", "requires_grad", "grad", "name", "cell", "regenerate")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name
        self.cell: GradCell | None = None  # set by record_op when recorded
        self.regenerate: Callable[[slice], np.ndarray] | None = None

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

    def release(self) -> None:
        """With `regenerate` set, swap data for a stand-in of its shape and
        dtype, freeing the array once no one else holds it; otherwise do
        nothing. Only the last forward reader of the whole array calls it."""
        if self.regenerate is not None:
            self.data = _stand_in(self.shape, self.dtype)

    @property
    def released(self) -> bool:
        """Whether data is a stand-in, by `release` or from the start (an
        eval conv's output): a reader must then read it through `regenerate`."""
        return self.regenerate is not None and not any(self.data.strides)

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


class GradCell:
    """Where a recorded op's output gathers its gradient during backward:
    the output's shape and dtype, and the gradient, but not the value."""

    __slots__ = ("shape", "dtype", "grad")

    def __init__(self, shape: tuple[int, ...], dtype):
        self.shape = shape
        self.dtype = dtype
        self.grad: np.ndarray | None = None


@dataclass
class TapeNode:
    op: str
    inputs: tuple[GradCell | Tensor | None, ...]  # None: takes no gradient
    output: GradCell
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class Tape:
    """Ordered record of executed operations for one backward pass.

    Use as a context manager around a forward computation; ``backward``
    seeds the loss's gradient cell and replays nodes newest-first, visiting
    each exactly once and accumulating gradients additively. It consumes the
    tape: ``nodes`` is empty afterwards, intermediate Tensors' ``.grad`` is
    None, and a second ``backward`` raises.

    Gradients change hands rather than being copied. Each node's output
    gradient is handed to its backward rule and never read again, so the
    rule may overwrite it; the arrays a rule returns are handed back, and
    the rule keeps no reference to them. The first gradient to reach an
    input is adopted as its ``.grad`` when it owns its memory or is a view
    of the node's own output gradient (as a reshape's is), is C-contiguous
    and writeable, has the input's shape and dtype and may share no memory
    with an array the same node already handed on; any other, such as a
    transpose's strided view, is copied into a new C-contiguous array.
    Later arrivals add in place.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._replayed = False

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
        if self._replayed:
            raise RuntimeError("backward on a tape that was already replayed")
        self._replayed = True
        _accumulate(loss.cell or loss, np.ones(loss.shape, loss.dtype), adopt=True)
        while self.nodes:
            _replay(self.nodes.pop())


def _replay(node: TapeNode) -> None:
    """Route a popped node's output gradient to its inputs and clear it.
    The gradients it reads and returns and does not hand on are released
    when this returns, before the next node replays."""
    out_grad, node.output.grad = node.output.grad, None
    if out_grad is None:
        return
    # out_grad is this node's alone, and so is any view the rule made of it
    owner = out_grad if out_grad.base is None else out_grad.base
    handed: list[np.ndarray] = []
    for target, g in zip(node.inputs, node.backward(out_grad)):
        if g is None or target is None:
            continue
        adopt = ((g.base is None or g.base is owner)
                 and not any(np.may_share_memory(g, h) for h in handed))
        if _accumulate(target, g, adopt):
            handed.append(g)


def _accumulate(target: GradCell | Tensor, g: np.ndarray, adopt: bool) -> bool:
    """Add g to target.grad; with adopt, a first gradient with C-contiguous,
    writeable memory in the target's shape and dtype becomes target.grad
    itself. Returns whether g was adopted."""
    if target.grad is not None:
        np.add(target.grad, g, out=target.grad)
        return False
    if (adopt and g.flags.c_contiguous and g.flags.writeable
            and g.shape == target.shape and g.dtype == target.dtype):
        target.grad = g
        return True
    target.grad = np.empty(target.shape, target.dtype)
    target.grad[...] = g
    return False


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
    """Wrap an eagerly computed result and register its backward rule.

    The node gets a fresh GradCell as its output, also kept as the
    result's ``cell``, and for each input its cell, the input itself if
    it is a leaf or Parameter that requires a gradient, or None. So the
    tape keeps alive only what `backward` captured: a rule should capture
    the arrays and shapes it reads, never a Tensor that is not a
    Parameter. `backward` takes the output gradient, which it may
    overwrite, and returns one gradient or None per input, handing those
    arrays over (see Tape).
    """
    if check_finite:
        _ensure_finite(out_data, op, inputs)
    tape = active_tape()
    needs_grad = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs_grad)
    if needs_grad:
        out.cell = GradCell(out.shape, out.dtype)
        slots = tuple(t.cell or (t if t.requires_grad else None) for t in inputs)
        tape.record(TapeNode(op, slots, out.cell, backward))
    return out


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for operands of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data

    def backward(g):
        return g, g

    return record_op("add", (a, b), out, backward)


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


def mean_axis(x: Tensor, axis: int | Sequence[int]) -> Tensor:
    """Arithmetic mean over one axis or a tuple of distinct axes, in one
    pass; those axes are removed from the shape."""
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not axes or len(set(axes)) != len(axes) or not all(0 <= a < x.ndim for a in axes):
        raise ShapeError(f"mean_axis: axes {axis} invalid for rank {x.ndim}")
    n = int(np.prod([x.shape[a] for a in axes]))
    out = x.data.mean(axis=axes)
    shape = x.shape

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g / n, axes), shape),)

    return record_op("mean_axis", (x,), out, backward)


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


def probe(out: Tensor, w) -> Tensor:
    """sum(out * w) for a constant w of out's shape: a scalar loss whose
    backward hands `out` the gradient w, in out's dtype."""
    w = np.asarray(w, dtype=out.dtype)
    if w.shape != out.shape:
        raise ShapeError(f"probe: weights of shape {w.shape} for an output of shape {out.shape}")
    value = np.asarray((out.data * w).sum(), dtype=out.dtype)
    return record_op("probe", (out,), value, lambda g: (g * w,))


@dataclass
class GradCheckReport:
    """Per-parameter max relative error of tape gradients vs central differences."""

    per_parameter: dict[str, float] = field(default_factory=dict)
    tolerance: float = 1e-4

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
    if samples_per_parameter < 1:
        raise ValueError(f"samples_per_parameter must be >= 1, got {samples_per_parameter}")
    # the report is keyed by name: a shared name would hide all but one error
    names = [p.name or f"param{k}" for k, p in enumerate(params)]
    if len(set(names)) != len(names):
        raise ValueError(f"grad_check needs distinct parameter names, got {names}")
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

    report = GradCheckReport(tolerance=tol)
    for name, p in zip(names, params):
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= samples_per_parameter:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=samples_per_parameter, replace=False)
        ad = ad_grads[id(p)].reshape(-1)
        # a non-finite gradient, sampled or not, or difference fails the
        # check: max() would drop a NaN error
        worst = 0.0 if np.isfinite(ad).all() else np.inf
        for i in idxs:
            orig = flat[i]
            try:
                flat[i] = orig + h
                f_plus = float(f().data)
                flat[i] = orig - h
                f_minus = float(f().data)
            finally:
                flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = (abs(ad[i] - fd) / max(1e-8, abs(ad[i]) + abs(fd))
                   if np.isfinite(ad[i]) and np.isfinite(fd) else np.inf)
            worst = max(worst, rel)
        report.per_parameter[name] = worst
    return report
