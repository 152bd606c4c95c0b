import numpy as np
import pytest

from regionmae.autodiff import Tensor
from regionmae.checkpoint import (
    load_checkpoint,
    restore_params,
    save_checkpoint,
)
from regionmae.errors import CheckpointError, TrainingError
from regionmae.optim import AdamW


def make_params(rng, names=("w", "b")):
    return {n: Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
            for n in names}


def arrays_of(params):
    return {k: v.data for k, v in params.items()}


def test_weight_decay_only_shrinks_exactly(rng):
    params = make_params(rng)
    before = {k: v.data.copy() for k, v in params.items()}
    for p in params.values():
        p.grad = np.zeros_like(p.data)
    AdamW(params, lr=0.1, weight_decay=0.01).step()
    for k, p in params.items():
        np.testing.assert_allclose(p.data, before[k] * (1 - 0.1 * 0.01), rtol=1e-6)


def test_zero_grad_zero_decay_is_noop(rng):
    params = make_params(rng)
    before = {k: v.data.copy() for k, v in params.items()}
    for p in params.values():
        p.grad = np.zeros_like(p.data)
    AdamW(params, lr=0.1, weight_decay=0.0).step()
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_missing_gradient_steps_as_zero(rng):
    params = make_params(rng)
    before = {k: v.data.copy() for k, v in params.items()}
    params["w"].grad = np.ones_like(params["w"].data)
    AdamW(params, lr=0.1, weight_decay=0.01).step()
    np.testing.assert_allclose(params["b"].data, before["b"] * (1 - 0.1 * 0.01),
                               rtol=1e-6)
    assert params["b"].grad is None


def test_first_step_closed_form(rng):
    g = rng.normal(size=(4,)).astype(np.float32)
    p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    p.grad = g.copy()
    lr, eps = 1e-2, 1e-8
    AdamW({"p": p}, lr=lr, eps=eps, clip_norm=np.inf).step()
    expect = -lr * g / (np.abs(g) + eps)
    np.testing.assert_allclose(p.data, expect, rtol=1e-5)


def test_second_step_tracks_moments(rng):
    # two identical gradients: m_hat = g, v_hat = g^2 again by bias correction
    g = rng.normal(size=(5,)).astype(np.float64)
    p = Tensor(np.zeros(5, dtype=np.float64), requires_grad=True)
    opt = AdamW({"p": p}, lr=1e-3, clip_norm=np.inf)
    for _ in range(2):
        p.grad = g.copy()
        opt.step()
    assert opt.steps == 2
    np.testing.assert_allclose(p.data, -2e-3 * g / (np.abs(g) + 1e-8), rtol=1e-9)


def test_nonfinite_gradient_names_parameter(rng):
    params = make_params(rng, names=("good", "broken"))
    params["good"].grad = np.zeros_like(params["good"].data)
    params["broken"].grad = np.full_like(params["broken"].data, np.nan)
    with pytest.raises(TrainingError, match="broken"):
        AdamW(params, lr=1e-3).step()


def test_clip_global_norm(rng):
    params = make_params(rng)
    params["w"].grad = np.full((3, 2), 3.0, dtype=np.float32)
    params["b"].grad = np.full((3, 2), 4.0, dtype=np.float32)
    # lr=0 leaves the parameters as they are, so only the clip acts
    opt = AdamW(params, lr=0.0, clip_norm=1.0)
    norm = opt.step()
    expect_norm = np.sqrt(6 * 9.0 + 6 * 16.0)
    assert norm == pytest.approx(expect_norm)
    after = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params.values()))
    assert after == pytest.approx(1.0, rel=1e-5)
    # a norm already under the bound is untouched
    params["w"].grad = np.full((3, 2), 1e-4, dtype=np.float32)
    params["b"].grad = np.zeros((3, 2), dtype=np.float32)
    assert opt.step() == pytest.approx(1e-4 * np.sqrt(6))
    np.testing.assert_allclose(params["w"].grad, 1e-4)


def test_adamw_object_roundtrip(rng):
    params = make_params(rng)
    opt = AdamW(params, lr=1e-3, weight_decay=0.01, clip_norm=1.0)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
    opt.zero_grad()
    assert all(p.grad is None for p in params.values())
    assert opt.steps == 1
    assert set(opt.m) == set(opt.v) == set(params)


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, rng):
    params = {
        "enc.w": Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "enc.b": Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True),
        "scalar": Tensor(np.float32(2.5), requires_grad=True),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(arrays_of(params), path, config_hash="abc123", extra={"epoch": 7})
    arrays, manifest = load_checkpoint(path, config_hash="abc123")
    assert manifest["extra"]["epoch"] == 7
    for name, p in params.items():
        np.testing.assert_array_equal(arrays[name], p.data)

    fresh = {k: Tensor(np.zeros_like(v.data), requires_grad=True)
             for k, v in params.items()}
    restore_params(fresh, arrays)
    for name in params:
        np.testing.assert_array_equal(fresh[name].data, params[name].data)


def test_checkpoint_hash_mismatch(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(arrays_of(params), path, config_hash="cfg-a")
    with pytest.raises(CheckpointError):
        load_checkpoint(path, config_hash="cfg-b")
    # loading without a hash check still works
    arrays, _ = load_checkpoint(path)
    assert set(arrays) == {"w", "b"}


def test_checkpoint_missing_files(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_restore_rejects_name_and_shape_mismatch(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(arrays_of(params), path, config_hash="h")
    arrays, _ = load_checkpoint(path, "h")

    renamed = {"w": params["w"], "other": params["b"]}
    with pytest.raises(CheckpointError):
        restore_params(renamed, arrays)

    misshaped = {"w": Tensor(np.zeros((2, 2), dtype=np.float32)),
                 "b": params["b"]}
    with pytest.raises(CheckpointError):
        restore_params(misshaped, arrays)
