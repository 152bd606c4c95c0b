import tracemalloc
import weakref

import numpy as np
import pytest

from regionmae import autodiff as ad
from regionmae.autodiff import GradSlot, Tape, Tensor
from regionmae.errors import ValidationError


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences; mutates x in place and restores it."""
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def check_op(build, leaves: dict[str, Tensor], tol: float = 1e-6):
    """Compare tape gradients of scalar build(leaves) against finite differences."""
    for leaf_ in leaves.values():
        leaf_.grad = None
    with Tape() as tape:
        loss = build()
        tape.backward(loss)
    for name, leaf in leaves.items():
        got = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        want = numeric_grad(lambda: float(build().data), leaf.data)
        assert rel_err(got, want) <= tol, f"{name}: {rel_err(got, want)}"


def leaf(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True, dtype=np.float64)


def scalarize(out: Tensor, w: np.ndarray) -> Tensor:
    return ad.tsum(ad.mul(out, Tensor(w)))


# -- tape mechanics -----------------------------------------------------------

def test_constant_loss_leaves_untouched(rng):
    w = leaf(rng, 3)
    with Tape() as tape:
        loss = ad.sum_sq(Tensor(np.ones(4), dtype=np.float64))
        tape.backward(loss)
    assert w.grad is None


def test_linear_case_grad_is_input(rng):
    x = np.array([1.0, -2.0, 3.0])
    w = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = ad.tsum(ad.mul(w, Tensor(x)))
        tape.backward(loss)
    np.testing.assert_allclose(w.grad, x)


def test_nonscalar_loss_rejected(rng):
    w = leaf(rng, 2)
    with Tape() as tape:
        out = ad.mul(w, 2.0)
        with pytest.raises(ValidationError):
            tape.backward(out)


def test_grad_accumulates_across_backwards(rng):
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    for _ in range(3):
        with Tape() as tape:
            tape.backward(ad.sum_sq(w))
    np.testing.assert_allclose(w.grad, 3 * 2 * w.data)


def test_shared_node_fan_out(rng):
    # y = x*x + x: dy/dx = 2x + 1, with x consumed by two ops
    x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        y = ad.add(ad.mul(x, x), x)
        tape.backward(ad.tsum(y))
    np.testing.assert_allclose(x.grad, [7.0])


def test_first_grad_write_copies_per_leaf():
    # add hands the same g to both parents; each leaf must own its .grad
    a = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
    b = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        tape.backward(ad.tsum(ad.add(a, b)))
    assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    a.grad *= 5.0
    np.testing.assert_array_equal(b.grad, np.ones(3))


def test_first_grad_write_takes_the_leaf_dtype():
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    x.accumulate_grad(np.ones(3, dtype=np.float64))
    assert x.grad.dtype == np.float32
    x.accumulate_grad(np.ones(3, dtype=np.float64))
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_first_grad_write_is_c_contiguous(rng):
    # transpose hands its parent a transposed view of g
    x = leaf(rng, 3, 4, 5)
    with Tape() as tape:
        tape.backward(ad.sum_sq(ad.transpose(x, (2, 0, 1))))
    assert x.grad.flags["C_CONTIGUOUS"]
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_second_backward_on_a_tape_rejected():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = ad.sum_sq(x)
        tape.backward(loss)
        with pytest.raises(ValidationError):
            tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def _fan_out(x, w):  # x*x + x
    xx = ad.mul(x, x)
    return [xx, ad.add(xx, x)], 2 * x.data + 1


def _add_self(x, w):  # x + x
    return [ad.add(x, x)], np.full_like(x.data, 2.0)


def _residual(x, w):  # h + exp(h) with h = x*w
    h = ad.mul(x, w)
    e = ad.exp(h)
    return [h, e, ad.add(h, e)], w.data * (1.0 + np.exp(x.data * w.data))


@pytest.mark.parametrize("case", [_fan_out, _add_self, _residual])
def test_backward_frees_non_leaf_grads_and_keeps_leaf_grads(case):
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True, dtype=np.float64)
    w = Tensor(np.array([1.5, 0.5, -0.25]), dtype=np.float64)
    with Tape() as tape:
        nodes, want = case(x, w)
        loss = ad.tsum(nodes[-1])
        tape.backward(loss)
    assert len(tape) == 0
    for t in (*nodes, loss):
        assert t.requires_grad and t.grad is None
    np.testing.assert_allclose(x.grad, want)


def test_first_grad_write_keeps_an_owned_array_without_a_copy(monkeypatch):
    g = np.ones(3)
    x = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
    x.accumulate_grad(g)
    assert x.grad is g
    # another dtype or a non-C-ordered view is still copied
    y = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    y.accumulate_grad(g)
    assert y.grad.dtype == np.float32 and not np.shares_memory(y.grad, g)
    gt = np.ones((3, 2)).T
    z = Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float64)
    z.accumulate_grad(gt)
    assert z.grad.flags["C_CONTIGUOUS"] and not np.shares_memory(z.grad, gt)

    # through the tape: products, sub's pass-through and a reshape are
    # handed over; add copies g once, so its parents get separate buffers
    # the closures hold gradient slots, so the spy sits on the slot
    handed = {}
    real = GradSlot.accumulate_grad

    def spy(self, g):
        handed[id(self)] = g
        real(self, g)

    monkeypatch.setattr(GradSlot, "accumulate_grad", spy)
    a = Tensor(np.arange(3.0), requires_grad=True, dtype=np.float64)
    b = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    c = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        tape.backward(ad.tsum(ad.sub(ad.add(ad.mul(a, 2.0), b), c)))
    assert a.grad is handed[id(a.slot)]
    assert b.grad is handed[id(b.slot)] and not np.shares_memory(a.grad, b.grad)
    assert c.grad is handed[id(c.slot)] and not np.shares_memory(b.grad, c.grad)
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
    np.testing.assert_array_equal(b.grad, np.ones(3))
    np.testing.assert_array_equal(c.grad, -np.ones(3))

    r = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
    t = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        tape.backward(ad.tsum(ad.mul(ad.reshape(r, (3, 2)), ad.transpose(t, (1, 0)))))
    assert r.grad is handed[id(r.slot)] and r.grad.flags["C_CONTIGUOUS"]
    assert t.grad is not handed[id(t.slot)] and t.grad.flags["C_CONTIGUOUS"]


def test_preset_loss_grad_seeds_a_copy():
    # reshape hands its g on, so without the copy x.grad would alias seed
    x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
    seed = np.array(3.0)
    with Tape() as tape:
        loss = ad.reshape(x, ())
        loss.grad = seed
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [3.0])
    x.grad += 1.0
    assert seed == 3.0


def test_backward_peak_memory_is_a_few_arrays():
    # a chain of 8 ops on one 8 MB array: the backward frees each op's
    # activations and gradient as it goes instead of holding the chain
    x = Tensor(np.linspace(-1.0, 1.0, 1 << 20), requires_grad=True, dtype=np.float64)

    def chain():
        h = x
        for _ in range(4):
            h = ad.exp(ad.mul(h, 0.5))
        return ad.tsum(h)

    with Tape() as tape:
        loss = chain()
        assert len(tape) == 9
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * x.data.nbytes, peak / x.data.nbytes
    assert x.grad.shape == x.shape and np.all(np.isfinite(x.grad))


def test_output_no_backward_reads_is_freed_in_the_forward(rng):
    # a linear's matmul output feeds only the bias add, whose backward reads
    # no data, so nothing keeps it once the caller drops it
    x, w, b = leaf(rng, 5, 4), leaf(rng, 4, 3), leaf(rng, 3)
    proj = rng.normal(size=(5, 3))
    with Tape() as tape:
        y = ad.matmul(x, w)
        dead = weakref.ref(y.data)
        out = ad.add(y, b)
        del y
        assert dead() is None
        tape.backward(ad.tsum(ad.mul(out, Tensor(proj))))
    np.testing.assert_allclose(x.grad, proj @ w.data.T)
    np.testing.assert_allclose(w.grad, x.data.T @ proj)
    np.testing.assert_allclose(b.grad, proj.sum(axis=0))


def test_releases_freed_memory_trims_once_when_the_call_returns(monkeypatch):
    events = []
    monkeypatch.setattr(ad, "_malloc_trim", lambda pad: events.append(("trim", pad)))

    @ad.releases_freed_memory
    def work(x, *, y):
        events.append("call")
        return x + y

    assert work(1, y=2) == 3
    assert events == ["call", ("trim", 0)]
    assert work.__name__ == "work"


def test_heap_trimmer_is_a_no_op_without_malloc_trim(monkeypatch):
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: object())
    assert ad._heap_trimmer()(0) == 0


def test_matmul_with_a_frozen_weight_keeps_no_input(rng):
    # only the weight's gradient would read the input
    x, w = leaf(rng, 5, 4), leaf(rng, 4, 3)
    proj = rng.normal(size=(5, 3))
    with ad.frozen([w]), Tape() as tape:
        h = ad.mul(x, 2.0)
        dead = weakref.ref(h.data)
        out = ad.matmul(h, w)
        del h
        assert dead() is None
        tape.backward(ad.tsum(ad.mul(out, Tensor(proj))))
    assert w.grad is None
    np.testing.assert_allclose(x.grad, 2.0 * proj @ w.data.T)


def test_silu_keeps_only_its_input_for_the_backward(rng):
    # the sigmoid is recomputed in the backward, as softplus does
    x = leaf(rng, 256, 64, lo=-3.0, hi=3.0)
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.silu(x)
            held = tracemalloc.get_traced_memory()[0] - before
            tape.backward(ad.tsum(out))
    finally:
        tracemalloc.stop()
    # the output, plus the record and closure
    assert x.data.nbytes <= held < 1.5 * x.data.nbytes, held / x.data.nbytes
    sig = 1.0 / (1.0 + np.exp(-x.data))
    np.testing.assert_allclose(x.grad, sig * (1.0 + x.data * (1.0 - sig)))


def test_grad_of_another_shape_rejected():
    x = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
    with pytest.raises(ValidationError):
        x.accumulate_grad(np.ones((1, 3)))
    x.accumulate_grad(np.ones(3))
    with pytest.raises(ValidationError):
        x.accumulate_grad(np.ones(()))


def test_no_tape_means_no_recording(rng):
    w = leaf(rng, 4)
    out = ad.mul(w, w)
    assert out.requires_grad is False  # nothing recorded outside a tape


def test_sum_sq_hand_case():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        tape.backward(ad.sum_sq(x))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


# -- forward-value checks -----------------------------------------------------

def test_softmax_symmetry_and_rows():
    out = ad.softmax(Tensor(np.zeros(2), dtype=np.float64))
    np.testing.assert_allclose(out.data, [0.5, 0.5])
    x = Tensor(np.random.default_rng(3).normal(size=(5, 7)), dtype=np.float64)
    rows = ad.softmax(x, axis=-1).data.sum(axis=-1)
    np.testing.assert_allclose(rows, np.ones(5), atol=1e-12)


def test_softmax_neg_inf_exact_zero():
    x = np.array([1.0, 2.0, -np.inf])
    out = ad.softmax(Tensor(x, dtype=np.float64))
    assert out.data[2] == 0.0
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)


def test_layernorm_statistics(rng):
    x = Tensor(rng.normal(2.0, 3.0, size=(4, 16)), dtype=np.float64)
    g = Tensor(np.ones(16), dtype=np.float64)
    b = Tensor(np.zeros(16), dtype=np.float64)
    y = ad.layernorm(x, g, b).data
    np.testing.assert_allclose(y.mean(axis=-1), np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), np.ones(4), rtol=1e-4)


def test_dtype_policy():
    assert Tensor([0, 0, 0]).dtype == np.float32  # non-float input -> 32-bit
    assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32
    assert Tensor(np.zeros(3), dtype=np.float64).dtype == np.float64
    assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64  # preserved


# -- finite-difference sweep over the op set ---------------------------------

def test_gradcheck_arithmetic(rng):
    for trial in range(20):
        r = np.random.default_rng(trial)
        a = leaf(r, 4, 5)
        b = leaf(r, 4, 5)
        col = leaf(r, 4, 1)
        rowv = leaf(r, 5)
        w = r.normal(size=(4, 5))
        check_op(lambda: scalarize(ad.add(a, b), w), {"a": a, "b": b})
        check_op(lambda: scalarize(ad.sub(a, b), w), {"a": a, "b": b})
        check_op(lambda: scalarize(ad.mul(a, b), w), {"a": a, "b": b})
        check_op(lambda: scalarize(ad.mul(a, col), w), {"a": a, "col": col})
        check_op(lambda: scalarize(ad.add(a, rowv), w), {"a": a, "row": rowv})


def test_gradcheck_matmul(rng):
    for trial in range(10):
        r = np.random.default_rng(100 + trial)
        a = leaf(r, 3, 4)
        b = leaf(r, 4, 2)
        w = r.normal(size=(3, 2))
        check_op(lambda: scalarize(ad.matmul(a, b), w), {"a": a, "b": b})
        ab = leaf(r, 2, 3, 4)
        w2 = r.normal(size=(2, 3, 2))
        check_op(lambda: scalarize(ad.matmul(ab, b), w2), {"ab": ab, "b": b})
        bb = leaf(r, 2, 4, 5)
        w3 = r.normal(size=(2, 3, 5))
        check_op(lambda: scalarize(ad.matmul(ab, bb), w3), {"ab": ab, "bb": bb})


def test_gradcheck_unary(rng):
    cases = [
        (ad.exp, -1.0, 1.0),
        (ad.log, 0.3, 2.0),
        (ad.reciprocal, 0.4, 2.0),
        (ad.sqrt, 0.2, 2.0),
        (ad.sigmoid, -3.0, 3.0),
        (ad.softplus, -3.0, 3.0),
        (ad.silu, -3.0, 3.0),
        (ad.gelu, -3.0, 3.0),
    ]
    for trial in range(8):
        r = np.random.default_rng(200 + trial)
        for fn, lo, hi in cases:
            x = leaf(r, 3, 5, lo=lo, hi=hi)
            w = r.normal(size=(3, 5))
            check_op(lambda fn=fn, x=x, w=w: scalarize(fn(x), w), {"x": x})


def test_gradcheck_softmax_and_layernorm(rng):
    for trial in range(10):
        r = np.random.default_rng(300 + trial)
        x = leaf(r, 4, 6, lo=-2, hi=2)
        w = r.normal(size=(4, 6))
        check_op(lambda: scalarize(ad.softmax(x, axis=-1), w), {"x": x})
        check_op(lambda: scalarize(ad.softmax(x, axis=0), w), {"x": x})
        g = leaf(r, 6)
        b = leaf(r, 6)
        check_op(lambda: scalarize(ad.layernorm(x, g, b), w),
                 {"x": x, "gamma": g, "beta": b}, tol=5e-6)


def test_gradcheck_structural(rng):
    for trial in range(10):
        r = np.random.default_rng(400 + trial)
        x = leaf(r, 4, 6)
        w = r.normal(size=(24,))
        check_op(lambda: scalarize(ad.reshape(x, (24,)), w), {"x": x})
        w2 = r.normal(size=(6, 4))
        check_op(lambda: scalarize(ad.transpose(x, (1, 0)), w2), {"x": x})
        wr = r.normal(size=(4, 6))
        check_op(lambda: scalarize(ad.roll(x, (1, -2), (0, 1)), wr), {"x": x})
        idx = r.integers(0, 4, size=7)  # duplicates force scatter-accumulate
        w3 = r.normal(size=(7, 6))
        check_op(lambda: scalarize(ad.take_rows(x, idx), w3), {"x": x})
        w4 = r.normal(size=(4, 3))
        check_op(lambda: scalarize(ad.take_cols(x, 2, 5), w4), {"x": x})
        # adjacent slices of one leaf write disjoint parts of one .grad
        w5 = r.normal(size=(4, 2))
        check_op(lambda: ad.add(scalarize(ad.take_cols(x, 0, 2), w5),
                                scalarize(ad.take_cols(x, 2, 5), w4)), {"x": x})


def test_gradcheck_reductions(rng):
    for trial in range(10):
        r = np.random.default_rng(500 + trial)
        x = leaf(r, 3, 4, 5)
        check_op(lambda: ad.tsum(x), {"x": x})
        check_op(lambda: ad.tmean(x), {"x": x})
        check_op(lambda: ad.sum_sq(x), {"x": x})
        w = r.normal(size=(3, 5))
        check_op(lambda: scalarize(ad.tsum(x, axis=1), w), {"x": x})
        wm = r.normal(size=(3, 4))
        check_op(lambda: scalarize(ad.tmean(x, axis=-1), wm), {"x": x})


def test_gradcheck_bce(rng):
    for trial in range(5):
        r = np.random.default_rng(600 + trial)
        z = leaf(r, 6, lo=-2, hi=2)
        y = r.integers(0, 2, size=6).astype(np.float64)
        check_op(lambda: ad.bce_with_logits(z, y), {"z": z})


def test_bce_forward_value():
    z = Tensor(np.array([0.0, 0.0]), dtype=np.float64)
    out = ad.bce_with_logits(z, np.array([1.0, 0.0]))
    np.testing.assert_allclose(out.data, np.log(2.0))


def test_scatter_gather_transpose(rng):
    x = Tensor(np.zeros((5, 3)), requires_grad=True, dtype=np.float64)
    idx = np.array([0, 2, 2, 4])
    g_out = rng.normal(size=(4, 3))
    with Tape() as tape:
        out = ad.take_rows(x, idx)
        loss = ad.tsum(ad.mul(out, Tensor(g_out)))
        tape.backward(loss)
    expect = np.zeros((5, 3))
    np.add.at(expect, idx, g_out)
    np.testing.assert_allclose(x.grad, expect)
    assert np.all(x.grad[1] == 0) and np.all(x.grad[3] == 0)


# -- selective scan -----------------------------------------------------------

def scan_leaves(r, L=4, D=3, S=2):
    u = leaf(r, L, D)
    delta = leaf(r, L, D, lo=0.2, hi=1.2)
    a = Tensor(r.uniform(-2.0, -0.2, size=(D, S)), requires_grad=True, dtype=np.float64)
    b = leaf(r, L, S)
    c = leaf(r, L, S)
    d_skip = leaf(r, D)
    return u, delta, a, b, c, d_skip


def naive_scan_oracle(u, delta, a, b, c, d_skip):
    """Scalar per-element reference implementation."""
    L, D = u.shape
    S = a.shape[1]
    h = np.zeros((D, S))
    ys = np.zeros((L, D))
    for t in range(L):
        for d in range(D):
            acc = 0.0
            for s in range(S):
                abar = np.exp(delta[t, d] * a[d, s])
                bbar = (abar - 1.0) / a[d, s] * b[t, s]
                h[d, s] = abar * h[d, s] + bbar * u[t, d]
                acc += h[d, s] * c[t, s]
            ys[t, d] = acc + d_skip[d] * u[t, d]
    return ys


def test_selective_scan_matches_naive(rng):
    for trial in range(5):
        r = np.random.default_rng(700 + trial)
        u, delta, a, b, c, d_skip = scan_leaves(r, L=6, D=4, S=3)
        out = ad.selective_scan(u, delta, a, b, c, d_skip)
        want = naive_scan_oracle(u.data, delta.data, a.data, b.data, c.data,
                                 d_skip.data)
        np.testing.assert_allclose(out.data, want, rtol=1e-10, atol=1e-12)


def test_selective_scan_gradcheck(rng):
    for trial in range(3):
        r = np.random.default_rng(800 + trial)
        u, delta, a, b, c, d_skip = scan_leaves(r)
        w = r.normal(size=u.shape)
        check_op(
            lambda: scalarize(ad.selective_scan(u, delta, a, b, c, d_skip), w),
            {"u": u, "delta": delta, "a": a, "b": b, "c": c, "d_skip": d_skip},
            tol=2e-6,
        )


def test_selective_scan_gradcheck_partial_requires_grad():
    # integrated gradients holds a and d_skip constant; training may not
    # need every input either
    for trial, grads in enumerate(({"u", "delta", "b", "c"}, {"a"})):
        r = np.random.default_rng(850 + trial)
        leaves = dict(zip(("u", "delta", "a", "b", "c", "d_skip"), scan_leaves(r)))
        for name, t in leaves.items():
            t.requires_grad = name in grads
        w = r.normal(size=leaves["u"].shape)
        check_op(lambda: scalarize(ad.selective_scan(*leaves.values()), w),
                 {name: leaves[name] for name in grads}, tol=2e-6)
        for name, t in leaves.items():
            assert (t.grad is not None) == (name in grads), name


def test_selective_scan_single_step():
    r = np.random.default_rng(860)
    u, delta, a, b, c, d_skip = scan_leaves(r, L=1)
    out = ad.selective_scan(u, delta, a, b, c, d_skip)
    want = naive_scan_oracle(u.data, delta.data, a.data, b.data, c.data, d_skip.data)
    np.testing.assert_allclose(out.data, want, rtol=1e-12)
    w = r.normal(size=u.shape)
    check_op(lambda: scalarize(ad.selective_scan(u, delta, a, b, c, d_skip), w),
             {"u": u, "delta": delta, "a": a, "b": b, "c": c, "d_skip": d_skip},
             tol=2e-6)


def test_selective_scan_keeps_only_block_boundary_states_for_the_backward():
    L, D, S = 16 * ad.SCAN_BLOCK_ROWS, 32, 8
    leaves = scan_leaves(np.random.default_rng(880), L=L, D=D, S=S)
    lds = L * S * D * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = ad.selective_scan(*leaves)
            held = tracemalloc.get_traced_memory()[0] - before
            tape.backward(ad.tsum(out))
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the [L, D] output and one [S, D] state per block boundary; the history
    # is rebuilt block by block in the backward
    assert held < 0.25 * lds, held / lds
    assert peak < lds, peak / lds
    assert all(t.grad is not None for t in leaves)


SCAN_NAMES = ("u", "delta", "a", "b", "c", "d_skip")


def scan_with_grads(leaves, w, grads):
    for name, t in zip(SCAN_NAMES, leaves):
        t.grad = None
        t.requires_grad = name in grads
    with Tape() as tape:
        out = ad.selective_scan(*leaves)
        tape.backward(ad.tsum(ad.mul(out, Tensor(w))))
    return out.data, {name: t.grad for name, t in zip(SCAN_NAMES, leaves)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grads", [set(SCAN_NAMES), {"u", "delta", "b", "c"}],
                         ids=["all", "ig"])
def test_selective_scan_result_does_not_depend_on_the_block_size(
        monkeypatch, dtype, grads):
    # L = Q, L = Q + 1 and L not a multiple of Q, for Q = 1, 2 and 3
    for L in (1, 2, 3, 4, 7, 50):
        r = np.random.default_rng(890 + L)
        leaves = [Tensor(t.data, dtype=dtype) for t in scan_leaves(r, L=L, D=5, S=3)]
        w = r.normal(size=(L, 5)).astype(dtype)
        monkeypatch.setattr(ad, "SCAN_BLOCK_ROWS", L + 3)  # one block
        y_ref, g_ref = scan_with_grads(leaves, w, grads)
        for q in (1, 2, 3, L):
            monkeypatch.setattr(ad, "SCAN_BLOCK_ROWS", q)
            y, g = scan_with_grads(leaves, w, grads)
            assert y.dtype == dtype and y.tobytes() == y_ref.tobytes(), (L, q)
            for name in SCAN_NAMES:
                assert (g[name] is None) == (name not in grads), (L, q, name)
                if g[name] is None:
                    continue
                assert g[name].dtype == dtype
                if name != "a":
                    assert g[name].tobytes() == g_ref[name].tobytes(), (L, q, name)
                elif dtype == np.float64:
                    # a's gradient is a sum over L, taken block by block
                    err = np.max(np.abs(g[name] - g_ref[name])) / np.max(np.abs(g_ref[name]))
                    assert err <= 1e-12, (L, q, err)


@pytest.mark.parametrize("grads", [set(SCAN_NAMES), {"u", "delta", "b", "c"}, {"a"}],
                         ids=["all", "u-delta-b-c", "a"])
def test_selective_scan_gradcheck_across_block_boundaries(monkeypatch, grads):
    monkeypatch.setattr(ad, "SCAN_BLOCK_ROWS", 2)
    r = np.random.default_rng(895)
    leaves = dict(zip(SCAN_NAMES, scan_leaves(r, L=5)))
    for name, t in leaves.items():
        t.requires_grad = name in grads
    w = r.normal(size=leaves["u"].shape)
    check_op(lambda: scalarize(ad.selective_scan(*leaves.values()), w),
             {name: leaves[name] for name in grads}, tol=2e-6)


def test_selective_scan_float32_matches_float64():
    L, D, S = 512, 16, 8
    r = np.random.default_rng(870)
    values = {
        "u": r.normal(size=(L, D)),
        "delta": np.log1p(np.exp(r.normal(-1.0, 1.0, size=(L, D)))),
        "a": -np.tile(np.arange(1.0, S + 1), (D, 1)) * r.uniform(0.5, 1.5, size=(D, S)),
        "b": r.normal(size=(L, S)),
        "c": r.normal(size=(L, S)),
        "d_skip": r.normal(size=D),
    }
    w = r.normal(size=(L, D))
    results = {}
    for dtype in (np.float32, np.float64):
        # the float64 run sees the float32-rounded inputs
        leaves = {k: Tensor(v.astype(np.float32), requires_grad=True, dtype=dtype)
                  for k, v in values.items()}
        with Tape() as tape:
            out = ad.selective_scan(*leaves.values())
            tape.backward(ad.tsum(ad.mul(out, Tensor(w.astype(dtype)))))
        assert out.dtype == dtype
        results[dtype] = {"y": out.data, **{k: t.grad for k, t in leaves.items()}}
        assert all(g.dtype == dtype for g in results[dtype].values())
    for name, want in results[np.float64].items():
        got = results[np.float32][name]
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-4, f"{name}: {err:.3g}"


def test_selective_scan_cumsum_limit():
    # a -> 0-: abar -> 1 and bbar -> delta * b; with delta = b = c = 1 the
    # scan degenerates to a per-channel cumulative sum of u.
    L, D, S = 5, 2, 1
    u = Tensor(np.ones((L, D)), dtype=np.float64)
    delta = Tensor(np.ones((L, D)), dtype=np.float64)
    a = Tensor(np.full((D, S), -1e-9), dtype=np.float64)
    b = Tensor(np.ones((L, S)), dtype=np.float64)
    c = Tensor(np.ones((L, S)), dtype=np.float64)
    d_skip = Tensor(np.zeros(D), dtype=np.float64)
    out = ad.selective_scan(u, delta, a, b, c, d_skip)
    np.testing.assert_allclose(out.data[:, 0], [1, 2, 3, 4, 5], rtol=1e-6)


def test_selective_scan_shape_mismatch(rng):
    u, delta, a, b, c, d_skip = scan_leaves(np.random.default_rng(0))
    with pytest.raises(ValidationError):
        ad.selective_scan(u, delta, a, b, Tensor(np.zeros((9, 2))), d_skip)


def test_selective_scan_rejects_a_not_negative():
    u, delta, a, b, c, d_skip = scan_leaves(np.random.default_rng(0))
    # a float32 -exp(a_log) that underflows gives -0.0, which divides by zero
    underflow = -np.exp(np.float32(-200.0))
    assert underflow == 0.0
    for bad in (underflow, 0.0, 0.5, np.nan):
        a_bad = a.data.copy()
        a_bad[1, 0] = bad
        with pytest.raises(ValidationError, match="a has zero, positive or NaN"):
            ad.selective_scan(u, delta, Tensor(a_bad, dtype=np.float64), b, c, d_skip)
