"""Unit tests for Tensor construction, introspection and graph mechanics."""

import threading
import weakref

import numpy as np
import pytest

from repro.tensor import Tensor, conv2d, no_grad, ones, tanh, zeros


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_numpy_shares_dtype_upcast(self):
        t = Tensor(np.array([1, 2], dtype=np.int32))
        assert t.dtype == np.float64

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_scalar(self):
        assert Tensor([[3.5]]).item() == 3.5

    def test_item_nonscalar_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_zeros_ones_helpers(self):
        assert np.all(zeros(2, 3).data == 0)
        assert np.all(ones(2, 3).data == 1)
        assert zeros(2, requires_grad=True).requires_grad

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))


class TestMake:
    """``Tensor._make`` builds every op output without ``__init__``."""

    def test_non_float64_and_scalar_data_become_float64_arrays(self):
        parent = Tensor([1.0], requires_grad=True)
        for data in (np.array([1, 2], dtype=np.int32),
                     np.array([1.5], dtype=np.float32),
                     np.array([2.0]).astype(">f8"), 3.0, np.float64(4.0), 5):
            out = Tensor._make(data, [parent], lambda g: None, "op")
            assert type(out.data) is np.ndarray
            assert out.data.dtype == np.float64 and out.data.dtype.isnative
            np.testing.assert_array_equal(out.data, np.asarray(data, np.float64))

    def test_float64_array_is_kept(self):
        data = np.arange(3.0)
        assert Tensor._make(data, [], lambda g: None, "op").data is data

    def test_grad_off_output_has_no_parents_or_closure(self):
        parent = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = Tensor._make(np.ones(1), [parent], lambda g: None, "op")
        assert not out.requires_grad
        assert out.grad is None
        assert out._parents == () and out._backward is None and out._op == ""

    def test_untracked_parents_record_nothing(self):
        out = Tensor._make(np.ones(1), [Tensor([1.0])], lambda g: None, "op")
        assert not out.requires_grad and out._parents == ()

    def test_grad_on_output_records_graph(self):
        a, b = Tensor([1.0]), Tensor([2.0], requires_grad=True)
        closure = lambda g: None  # noqa: E731
        out = Tensor._make(np.ones(1), [a, b], closure, "op")
        assert out.requires_grad and out.grad is None
        assert out._parents == (a, b) and out._backward is closure
        assert out._op == "op"


class TestGraphMechanics:
    def test_backward_scalar_default_seed(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])

    def test_backward_nonscalar_without_grad_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_backward_grad_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 3.0).backward(np.array([1.0]))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression_gradient(self):
        # y = x*x used twice; d/dx (x^2 + x^2) = 4x
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_diamond_graph(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        (a * b).sum().backward()
        # d/dx 15x^2 = 30x
        np.testing.assert_allclose(x.grad, [60.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad
        z = y * 3.0
        assert not z.requires_grad

    def test_clone_is_differentiable_copy(self):
        x = Tensor([2.0], requires_grad=True)
        y = x.clone()
        assert y.data is not x.data
        (y * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_constant_operand_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        (x * c).sum().backward()
        assert c.grad is None

    def test_interior_node_grad_not_retained(self):
        x = Tensor([1.0], requires_grad=True)
        mid = x * 2.0
        (mid * 3.0).sum().backward()
        assert mid.grad is None
        np.testing.assert_allclose(x.grad, [6.0])


def _zero_fill_accumulate(data, grads):
    """The reference formula: zero fill once, then ``+=`` every grad."""
    out = np.zeros_like(data)
    for grad in grads:
        out += grad
    return out


class TestAccumulate:
    @staticmethod
    def _accumulated(data, grads):
        t = Tensor(data, requires_grad=True)
        for grad in grads:
            t._accumulate(grad)
        return t.grad

    @staticmethod
    def _assert_same_bits(a, b):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("grads", [
        [np.array([-0.0, 0.0, -1.5, np.inf, -np.inf])],
        [np.array([-0.0, -0.0, 2.0, 5e-324, -5e-324])],
        [np.array([-0.0, 1.0, np.nan, 3.0, -2.0])],
    ])
    def test_first_accumulation_matches_zero_fill(self, grads):
        data = np.ones(5)
        got = self._accumulated(data, grads)
        self._assert_same_bits(got, _zero_fill_accumulate(data, grads))
        assert not np.signbit(got[0])  # -0.0 gradient lands as +0.0

    def test_broadcast_gradient_matches_zero_fill(self):
        data = np.ones((3, 4))
        grads = [np.array([-0.0, 0.25, -3.0, 7.0])]
        got = self._accumulated(data, grads)
        self._assert_same_bits(got, _zero_fill_accumulate(data, grads))

    def test_cast_follows_data_dtype(self):
        data = np.ones((2, 3))
        grads = [np.array([[1, -2, 0], [3, 0, -4]], dtype=np.int64),
                 np.full((2, 3), 0.1, dtype=np.float32)]
        got = self._accumulated(data, grads)
        self._assert_same_bits(got, _zero_fill_accumulate(data, grads))

    def test_repeated_accumulation_matches_zero_fill(self):
        rng = np.random.default_rng(0)
        data = np.ones((4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(5)]
        grads.insert(2, np.full((4, 3), -0.0))
        grads.append(rng.normal(size=(3,)))
        got = self._accumulated(data, grads)
        self._assert_same_bits(got, _zero_fill_accumulate(data, grads))

    def test_first_accumulation_does_not_alias_the_gradient(self):
        grad = np.array([1.0, 2.0])
        t = Tensor(np.zeros(2), requires_grad=True)
        t._accumulate(grad)
        t._accumulate(grad)
        assert grad.tolist() == [1.0, 2.0]
        assert t.grad.tolist() == [2.0, 4.0]


def _save_restore_backward(root):
    """The engine before staging, kept as the bit-exact oracle.

    Same topological sort; each closure writes interior parents' grads
    into their ``.grad`` (saved, cleared and restored around the call),
    which is then moved into the running ``grads`` dict.  Leaves the
    graph intact.
    """
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        if node.requires_grad and node._backward is None:
            node._accumulate(node_grad)
        if node._backward is not None:
            interior = [p for p in node._parents if p._backward is not None]
            saved = {id(p): p.grad for p in interior}
            for p in interior:
                p.grad = None
            node._backward(node_grad)
            for p in interior:
                if p.grad is not None:
                    existing = grads.get(id(p))
                    grads[id(p)] = p.grad if existing is None else existing + p.grad
                p.grad = saved[id(p)]


def _square(h):
    return h * h


def _double(h):
    return h + h


def _shared(h):
    # An interior node feeding several consumers, one of them twice.
    a = h * h
    b = (h + h) * a
    return (a - b) * h + h / (a + 3.0)


def _leaves(seed):
    rng = np.random.default_rng(seed)
    # Mixed magnitudes, so that regrouping a sum would move bits.
    x = Tensor(rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-6, 7, size=(5, 7)),
               requires_grad=True)
    w = Tensor(rng.normal(size=(7,)), requires_grad=True)
    return x, w


def _loss(build, x, w):
    h = tanh(x * w) * 1.5 + x
    return (build(h) * w).sum()


class TestStagedBackwardIdentity:
    @pytest.mark.parametrize("build", [_square, _double, _shared])
    def test_grads_match_save_restore_engine(self, build):
        x, w = _leaves(0)
        _loss(build, x, w).backward()
        rx, rw = _leaves(0)
        _save_restore_backward(_loss(build, rx, rw))
        assert x.grad.tobytes() == rx.grad.tobytes()
        assert w.grad.tobytes() == rw.grad.tobytes()

    def test_conv_grads_match_save_restore_engine(self):
        def run(engine):
            rng = np.random.default_rng(3)
            x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
            k = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            y = conv2d(x, k, padding=1, stride=2)
            engine(((y * y) + y).sum())
            return x.grad.tobytes(), k.grad.tobytes()

        assert run(Tensor.backward) == run(_save_restore_backward)

    def test_two_threads_match_serial(self):
        def grads(seed):
            x, w = _leaves(seed)
            _loss(_shared, x, w).backward()
            return x.grad.tobytes(), w.grad.tobytes()

        seeds = (1, 2)
        serial = {seed: grads(seed) for seed in seeds}
        barrier = threading.Barrier(len(seeds))
        results = {seed: [] for seed in seeds}

        def worker(seed):
            barrier.wait()
            for _ in range(50):
                results[seed].append(grads(seed))

        threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for seed in seeds:
            assert results[seed] == [serial[seed]] * 50


class TestGraphFreeing:
    def test_backward_frees_saved_arrays(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        y = conv2d(x, k, padding=1)
        closure = y._backward
        cols = closure.__closure__[closure.__code__.co_freevars.index("cols")]
        cols_ref = weakref.ref(cols.cell_contents)
        del closure, cols
        loss = (y * y).sum()
        loss.backward()
        assert cols_ref() is None
        assert loss._parents == () and y._parents == ()
        assert x.grad is not None and k.grad is not None

    def test_second_backward_through_freed_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = x * 2.0
        loss = (mid * 3.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="graph already freed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="graph already freed"):
            (mid * 4.0).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0, 6.0])

    def test_failed_backward_leaves_no_staging_behind(self):
        x = Tensor([1.0], requires_grad=True)
        mid = x * 2.0
        (mid * 3.0).sum().backward()
        with pytest.raises(RuntimeError):
            (mid * 4.0).sum().backward()
        # Outside backward, _accumulate on an interior node reaches .grad.
        fresh = x * 5.0
        fresh._accumulate(np.array([1.0]))
        assert fresh.grad.tolist() == [1.0]


class TestComparisons:
    def test_comparisons_return_numpy_bool(self):
        a = Tensor([1.0, 2.0, 3.0])
        res = a > 1.5
        assert isinstance(res, np.ndarray)
        np.testing.assert_array_equal(res, [False, True, True])
        np.testing.assert_array_equal(a >= 2.0, [False, True, True])
        np.testing.assert_array_equal(a < 2.0, [True, False, False])
        np.testing.assert_array_equal(a <= 1.0, [True, False, False])


class TestValueSemantics:
    """Eager ops keep exact values: equal ops, signed zeros, views."""

    def test_equal_ops_give_separate_results_and_both_gradients(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        ones = Tensor(np.ones(3))
        y1 = x + ones
        y2 = x + ones
        np.testing.assert_array_equal(y1.data, y2.data)
        assert not np.shares_memory(y1.data, y2.data)
        (y1 * y2).sum().backward()
        np.testing.assert_array_equal(x.grad, 2.0 * (np.arange(3.0) + 1.0))

    def test_signed_zero_constants_keep_their_bits(self):
        """Scaling by 2.0, -0.0 and 0.0 keeps every bit pattern apart."""
        x = Tensor(np.array([1.0, -1.0, 0.0]))
        by_neg_zero = (x * -0.0).data
        by_zero = (x * 0.0).data
        np.testing.assert_array_equal(np.signbit(by_neg_zero), [True, False, True])
        np.testing.assert_array_equal(np.signbit(by_zero), [False, True, False])
        total = (x * 2.0 + x * -0.0 + x * 0.0).data
        np.testing.assert_array_equal(total, np.array([2.0, -2.0, 0.0]))

    def test_tanh_of_a_strided_slice(self):
        """tanh of a gap-strided column slice: exact values, scattered grads."""
        data = np.random.default_rng(5).normal(size=(32, 32))
        x = Tensor(data, requires_grad=True)
        gate = x[:, :16]
        assert np.shares_memory(gate.data, data)  # slicing is a view
        y = tanh(gate)
        np.testing.assert_array_equal(y.data, np.tanh(data[:, :16]))
        y.sum().backward()
        np.testing.assert_array_equal(
            x.grad[:, :16], 1.0 - np.tanh(data[:, :16]) ** 2
        )
        assert not x.grad[:, 16:].any()

    def test_reshape_and_transpose_are_views(self):
        """Reshape and transpose of a Tensor share its buffer, copying nothing."""
        data = np.arange(12.0).reshape(3, 4)
        t = Tensor(data)
        flat = t.reshape(-1)
        swapped = t.transpose()
        assert np.shares_memory(flat.data, data)
        assert np.shares_memory(swapped.data, data)
        np.testing.assert_array_equal(flat.data, data.ravel())
        np.testing.assert_array_equal(swapped.data, data.T)
