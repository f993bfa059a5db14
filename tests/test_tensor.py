import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralca import tensor as T
from spectralca.tensor import (
    GradCheckReport,
    NonFiniteError,
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    grad_check,
)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestAdd:
    def test_additive_identity(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_hand_arithmetic(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_backward_routes_to_both(self):
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            out = T.add(a, b)
            loss = T.sum_all(out)
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_singleton_broadcast(self):
        a = t64(np.ones((2, 3)), requires_grad=True)
        b = t64(np.full((1, 3), 2.0), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.add(a, b))
        tape.backward(loss)
        assert b.grad.shape == (1, 3)
        np.testing.assert_array_equal(b.grad, np.full((1, 3), 2.0))

    def test_rank_promotion_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_unresolvable_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


class TestMeanAxis:
    def test_constant_cube(self):
        x = Tensor(np.full((2, 3, 4), 5.0))
        out = T.mean_axis(x, 2)
        np.testing.assert_allclose(out.data, np.full((2, 3), 5.0))

    def test_hand_arithmetic(self):
        out = T.mean_axis(Tensor([[1.0, 3.0]]), 1)
        np.testing.assert_allclose(out.data, [2.0])

    def test_shape_contract(self):
        x = Tensor(np.zeros((2, 64, 9, 9, 32), dtype=np.float32))
        assert T.mean_axis(x, 4).shape == (2, 64, 9, 9)

    def test_axis_out_of_range(self):
        # out of range, negative, a repeated axis and no axis at all
        for axis in (2, -1, (0, 2), (1, 1), ()):
            with pytest.raises(ShapeError):
                T.mean_axis(Tensor(np.zeros((2, 2))), axis)

    def test_backward_distributes_uniformly(self):
        x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mean_axis(x, 1))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 3.0))


class TestConcatChannels:
    def test_shape_contract(self):
        a = Tensor(np.zeros((2, 96, 9, 9, 32), dtype=np.float32))
        b = Tensor(np.zeros((2, 96, 9, 9, 32), dtype=np.float32))
        assert T.concat_channels(a, b).shape == (2, 192, 9, 9, 32)

    def test_placement(self):
        a = Tensor(np.ones((1, 96, 2, 2, 3), dtype=np.float32))
        b = Tensor(np.full((1, 96, 2, 2, 3), 2.0, dtype=np.float32))
        out = T.concat_channels(a, b)
        assert (out.data[:, :96] == 1.0).all()
        assert (out.data[:, 96:] == 2.0).all()

    def test_backward_splits_at_seam(self):
        a = t64(np.zeros((1, 2, 2)), requires_grad=True)
        b = t64(np.zeros((1, 3, 2)), requires_grad=True)
        with Tape() as tape:
            out = T.concat_channels(a, b)
            loss = T.sum_all(T.mul(out, Tensor(np.arange(10.0).reshape(1, 5, 2))))
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, np.arange(4.0).reshape(1, 2, 2))
        np.testing.assert_array_equal(b.grad, np.arange(4.0, 10.0).reshape(1, 3, 2))

    def test_non_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.concat_channels(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 4))))


class TestTapeMechanics:
    def test_nodes_visited_exactly_once(self):
        x = t64([2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
            z = T.add(y, y)
            loss = T.sum_all(z)
        tape.backward(loss)
        assert len(tape.nodes) == 0  # consumed
        # d/dx of 2x^2 at 2 is 8; double-counting any node would break this
        np.testing.assert_allclose(x.grad, [8.0])

    def test_backward_consumes_the_tape(self):
        x = t64([1.0, 2.0], requires_grad=True)
        w = Parameter(np.array([3.0, 4.0]), name="w")
        with Tape() as tape:
            y = T.mul(x, w)
            loss = T.sum_all(T.add(y, y))
        tape.backward(loss)
        assert tape.nodes == []
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [6.0, 8.0])
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_gradients_accumulate_additively(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.add(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_no_recording_without_tape(self):
        x = t64([1.0], requires_grad=True)
        out = T.mul(x, x)
        assert out.requires_grad is False

    def test_scalar_loss_required(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_recorded_output_data_is_freed_while_the_tape_holds_its_consumer(self):
        # the consumer's node holds y's gradient cell, not y, so y's value
        # goes once the forward's locals drop
        x = t64([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 2.0)
            loss = T.mean_all(y)
        value = weakref.ref(y.data)
        del y
        assert value() is None
        assert [n.op for n in tape.nodes] == ["scale", "mean_all"]
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.5, 0.5, 0.5, 0.5])

    def test_add_hands_its_gradient_to_one_input_only(self):
        # add returns its upstream gradient for both inputs: the first
        # adopts it, the second gets a copy, and the same input twice gets 2g
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0, 4.0], requires_grad=True)
        w = t64([5.0, 6.0])
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.add(a, b), w))
        add_node = tape.nodes[0]
        upstream = []
        inner = add_node.backward
        add_node.backward = lambda g: (upstream.append(g), inner(g))[1]
        tape.backward(loss)
        assert a.grad is upstream[0]
        assert b.grad is not a.grad
        np.testing.assert_array_equal(a.grad, [5.0, 6.0])
        np.testing.assert_array_equal(b.grad, [5.0, 6.0])

        c = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.add(c, c), w))
        tape.backward(loss)
        np.testing.assert_array_equal(c.grad, [10.0, 12.0])

    @pytest.mark.parametrize("op, adopted", [
        (lambda x: T.reshape(x, (3, 2)), True),
        (lambda x: T.transpose(x, (1, 0)), False),
    ], ids=["reshape", "transpose"])
    def test_view_gradient_of_the_nodes_own_gradient(self, op, adopted):
        # a reshape's input gradient is a C-ordered view of the reshape's
        # own output gradient, which nothing else holds, so it is adopted;
        # a transpose's is a strided view and is copied into C order
        x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = t64(np.arange(6.0).reshape(3, 2) + 1.0)
        with Tape() as tape:
            loss = T.sum_all(T.mul(op(x), w))
        mul_node = tape.nodes[1]
        handed = []
        inner = mul_node.backward

        def spy(g):
            grads = inner(g)
            handed.append(grads[0])  # the view op's output gradient
            return grads

        mul_node.backward = spy
        tape.backward(loss)
        assert np.shares_memory(x.grad, handed[0]) == adopted
        assert x.grad.flags.c_contiguous and x.grad.shape == x.shape
        expected = w.data.reshape(2, 3) if adopted else w.data.T
        np.testing.assert_array_equal(x.grad, expected)

    def test_views_sharing_memory_are_adopted_once(self):
        # a rule that hands two views of its gradient to two inputs: the
        # first is adopted, the second copied, so the two .grad arrays are
        # independent
        a = t64(np.zeros((2, 3)), requires_grad=True)
        b = t64(np.zeros(6), requires_grad=True)
        with Tape() as tape:
            y = T.record_op("pair", (a, b), np.zeros((3, 2)),
                            lambda g: (g.reshape(2, 3), g.reshape(6)))
            loss = T.sum_all(T.mul(y, t64(np.arange(6.0).reshape(3, 2))))
        tape.backward(loss)
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad.ravel(), b.grad)
        np.testing.assert_array_equal(b.grad, np.arange(6.0))

    def test_mean_axis_input_gradient_is_c_contiguous(self):
        # the spectral path's pooling over H and W: the gradient reaching
        # the pooled value (a BatchNorm output in the block) is C-ordered,
        # not laid out like the broadcast it comes from
        x = t64(np.random.default_rng(5).standard_normal((2, 3, 4, 5, 6)), requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 1.0)
            loss = T.sum_all(T.mean_axis(y, (2, 3)))
        scale_node = tape.nodes[0]
        received = []
        inner = scale_node.backward
        scale_node.backward = lambda g: (received.append(g), inner(g))[1]
        tape.backward(loss)
        assert received[0].shape == x.shape and received[0].flags.c_contiguous
        np.testing.assert_allclose(x.grad, np.full(x.shape, 1.0 / 20.0))


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises(self):
        big = Tensor(np.array([3.0e38], dtype=np.float32))
        with pytest.raises(NonFiniteError):
            T.add(big, big)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_input_detected_on_use(self):
        x = Tensor(np.array([np.inf], dtype=np.float32))
        with pytest.raises(NonFiniteError):
            T.mul(x, Tensor(np.array([0.0], dtype=np.float32)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_nonfinite_value_raises(self, bad):
        x = np.zeros((3, 5), dtype=np.float32)
        x[1, 2] = bad
        with pytest.raises(NonFiniteError):
            T.scale(Tensor(x), 1.0)

    def test_large_finite_values_pass(self):
        # a float32 sum of these would overflow to inf
        x = Tensor(np.full(1000, 3.0e38, dtype=np.float32))
        assert T.scale(x, 1.0).shape == (1000,)

    def test_empty_output_passes(self):
        assert T.scale(Tensor(np.zeros((0, 4), dtype=np.float32)), 2.0).shape == (0, 4)


class TestParameter:
    def test_grad_zero_initialized_and_shaped(self):
        p = Parameter(np.ones((3, 4), dtype=np.float32), name="w")
        assert p.grad.shape == p.data.shape
        assert (p.grad == 0).all()
        assert p.requires_grad


class TestGradCheck:
    def test_sum_of_squares(self):
        theta = Parameter(np.array([1.0, 2.0]), name="theta")

        def f():
            return T.sum_all(T.mul(theta, theta))

        report = grad_check(f, [theta], h=1e-4, tol=1e-9)
        np.testing.assert_allclose(theta.grad, [2.0, 4.0], atol=1e-12)
        assert report.max_rel_err < 1e-9
        assert report.ok

    def test_constant_function(self):
        theta = Parameter(np.array([1.0, 2.0]), name="theta")
        c = Tensor(np.array([7.0]))

        def f():
            return T.sum_all(T.add(T.scale(theta, 0.0), c))

        report = grad_check(f, [theta], h=1e-4, tol=1e-9)
        np.testing.assert_array_equal(theta.grad, [0.0, 0.0])
        assert report.max_rel_err == 0.0

    def test_float32_rejected(self):
        theta = Parameter(np.array([1.0], dtype=np.float32), name="theta")
        with pytest.raises(ValueError):
            grad_check(lambda: T.sum_all(theta), [theta])


# --- transpose-action (dot product) test for the linear primitives ------

LINEAR_CASES = {
    "add_lhs": ((2, 3, 4), lambda x: T.add(x, Tensor(np.ones((2, 3, 4)))), (2, 3, 4)),
    "add_broadcast_rhs": ((1, 3, 1), lambda x: T.add(Tensor(np.ones((2, 3, 4))), x), (2, 3, 4)),
    "scale": ((3, 5), lambda x: T.scale(x, -2.5), (3, 5)),
    "mean_axis": ((2, 5, 3), lambda x: T.mean_axis(x, 1), (2, 3)),
    "mean_axis_tuple": ((2, 5, 3, 4), lambda x: T.mean_axis(x, (3, 1)), (2, 3)),
    "mean_axis_all": ((2, 3, 4), lambda x: T.mean_axis(x, (0, 1, 2)), ()),
    "sum_all": ((4, 3), lambda x: T.sum_all(x), ()),
    "mean_all": ((4, 3), lambda x: T.mean_all(x), ()),
    "reshape": ((2, 6), lambda x: T.reshape(x, (3, 4)), (3, 4)),
    "transpose": ((2, 3, 4), lambda x: T.transpose(x, (2, 0, 1)), (4, 2, 3)),
    "concat_lhs": ((1, 2, 3), lambda x: T.concat_channels(x, Tensor(np.ones((1, 4, 3)))), (1, 6, 3)),
    "matmul_lhs": ((2, 3, 4), lambda x: T.matmul(x, Tensor(np.ones((2, 4, 5)))), (2, 3, 5)),
    "matmul_rhs": ((2, 4, 5), lambda x: T.matmul(Tensor(np.ones((2, 3, 4))), x), (2, 3, 5)),
    "mul_by_const": ((3, 4), lambda x: T.mul(x, Tensor(np.arange(12.0).reshape(3, 4))), (3, 4)),
}


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_linear_op_backward_is_transpose(name):
    """<J v, u> == <v, J^T u> for 100 random v,u pairs, 64-bit."""
    in_shape, op, out_shape = LINEAR_CASES[name]
    rng = np.random.default_rng(hash(name) % (2**32))
    x0 = rng.standard_normal(in_shape)
    base = op(Tensor(x0)).data
    for _ in range(100):
        v = rng.standard_normal(in_shape)
        u = rng.standard_normal(out_shape) if out_shape else rng.standard_normal()
        jv = op(Tensor(x0 + v)).data - base
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            out = op(x)
            loss = T.sum_all(T.mul(out, Tensor(np.asarray(u, dtype=np.float64))))
        tape.backward(loss)
        lhs = float((jv * u).sum())
        rhs = float((v * x.grad).sum())
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs), abs(rhs))


# --- property tests ------------------------------------------------------

small_extent = st.integers(min_value=1, max_value=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_extent, min_size=1, max_size=4), st.data())
def test_mean_axis_shape_property(shape, data):
    axis = st.integers(min_value=0, max_value=len(shape) - 1)
    axes = data.draw(axis | st.lists(axis, min_size=1, unique=True).map(tuple))
    x = Tensor(np.random.default_rng(0).standard_normal(shape))
    out = T.mean_axis(x, axes)
    dropped = {axes} if isinstance(axes, int) else set(axes)
    assert out.shape == tuple(e for i, e in enumerate(shape) if i not in dropped)
    np.testing.assert_allclose(out.data, x.data.mean(axis=axes), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_extent, min_size=2, max_size=4), small_extent, small_extent)
def test_concat_channels_shape_property(shape, ca, cb):
    a = Tensor(np.zeros(tuple([shape[0], ca] + shape[2:]), dtype=np.float32))
    b = Tensor(np.zeros(tuple([shape[0], cb] + shape[2:]), dtype=np.float32))
    out = T.concat_channels(a, b)
    assert out.shape == tuple([shape[0], ca + cb] + shape[2:])


def test_gradcheck_report_formatting():
    report = GradCheckReport(per_parameter={"a.w": 1e-6, "b.w": 3e-5}, tolerance=1e-4)
    assert report.max_rel_err == 3e-5
    assert report.ok
    assert "max" in str(report)
