import numpy as np
import pytest

from regionmae.atlas import (
    MACROREGIONS,
    PatchGrid,
    PatchSets,
    RegionMap,
    classify_patches,
)
from regionmae.errors import ConfigurationError, ValidationError
from regionmae.masking import (
    PER_FRAME,
    RANDOM_RANDOM,
    RANDOM_TUBE,
    REGION_ANY,
    REGION_MAJORITY,
    REGION_PURE,
    TUBE,
    WINDOW_RANDOM,
    MaskSpec,
    MaskTensor,
    apply_mask,
    build_mask,
    load_mask,
    save_mask,
)
from regionmae.nifti import LabelVolume


@pytest.fixture(scope="module")
def sets():
    r = np.random.default_rng(7)
    coarse = r.integers(0, 8, size=(4, 4, 4)).astype(np.int32)
    labels = np.repeat(np.repeat(np.repeat(coarse, 6, 0), 6, 1), 6, 2)
    rm = RegionMap({l: MACROREGIONS[(l - 1) % 7] for l in range(1, 8)})
    return classify_patches(LabelVolume(labels=labels, affine=np.eye(4)), rm,
                            grid=PatchGrid.for_shape(labels.shape))


def region_with_patches(sets, criterion):
    for region in MACROREGIONS:
        if len(sets.patch_set(region, criterion)) >= 2:
            return region
    raise RuntimeError("fixture atlas has no usable region")


def test_spec_validation():
    with pytest.raises(ValidationError):
        MaskSpec(strategy="BOGUS")
    with pytest.raises(ValidationError):
        MaskSpec(strategy=RANDOM_RANDOM, ratio=0.0)
    with pytest.raises(ValidationError):
        MaskSpec(strategy=RANDOM_RANDOM, ratio=1.2)
    with pytest.raises(ValidationError):
        MaskSpec(strategy=REGION_ANY)  # region strategies need a region


def test_region_tube_full_ratio(sets):
    region = region_with_patches(sets, "pure")
    pure = sets.patch_set(region, "pure")
    spec = MaskSpec(strategy=REGION_PURE, region=region, ratio=1.0,
                    temporal_mode=TUBE, seed=3)
    out = build_mask(spec, sets, t_patches=10)
    assert out.masked_slots == len(pure) * 10
    assert out.masked_voxels == len(pure) * 10 * 216
    np.testing.assert_array_equal(np.flatnonzero(out.mask.any(axis=1)), np.sort(pure))
    # tube: every masked patch is masked at every frame
    assert np.all(out.mask[pure, :])


def test_region_ratio_subsampling(sets):
    region = region_with_patches(sets, "any")
    candidates = sets.patch_set(region, "any")
    spec = MaskSpec(strategy=REGION_ANY, region=region, ratio=0.5, seed=11)
    out = build_mask(spec, sets, t_patches=4)
    expect = int(np.ceil(0.5 * len(candidates)))
    masked_patches = np.flatnonzero(out.mask.any(axis=1))
    assert len(masked_patches) == expect
    assert set(masked_patches) <= set(candidates.tolist())


def test_region_per_frame_varies(sets):
    region = region_with_patches(sets, "any")
    spec = MaskSpec(strategy=REGION_ANY, region=region, ratio=0.4,
                    temporal_mode=PER_FRAME, seed=5)
    out = build_mask(spec, sets, t_patches=6)
    per_frame = [frozenset(np.flatnonzero(out.mask[:, t])) for t in range(6)]
    assert len(set(per_frame)) > 1  # frames drawn independently
    k = int(np.ceil(0.4 * len(sets.patch_set(region, "any"))))
    assert all(len(f) == k for f in per_frame)


def test_seed_determinism(sets):
    region = region_with_patches(sets, "majority")
    spec = MaskSpec(strategy=REGION_MAJORITY, region=region, ratio=0.7, seed=42)
    a = build_mask(spec, sets, t_patches=5)
    b = build_mask(spec, sets, t_patches=5)
    np.testing.assert_array_equal(a.mask, b.mask)
    c = build_mask(MaskSpec(strategy=REGION_MAJORITY, region=region,
                            ratio=0.7, seed=43), sets, t_patches=5)
    assert not np.array_equal(a.mask, c.mask)


def test_region_inclusion_at_full_ratio(sets):
    region = region_with_patches(sets, "pure")
    masks = {}
    for strat in (REGION_ANY, REGION_MAJORITY, REGION_PURE):
        spec = MaskSpec(strategy=strat, region=region, ratio=1.0, seed=1)
        masks[strat] = build_mask(spec, sets, t_patches=3).mask
    assert np.all(masks[REGION_PURE] <= masks[REGION_MAJORITY])
    assert np.all(masks[REGION_MAJORITY] <= masks[REGION_ANY])


def test_empty_candidate_set_rejected():
    # label 2 (parietal) never occurs, so its patch sets are all empty
    labels = np.ones((12, 12, 12), dtype=np.int32)
    rm = RegionMap({1: "frontal", 2: "parietal"})
    only_frontal = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)), rm,
                                    grid=PatchGrid.for_shape(labels.shape))
    spec = MaskSpec(strategy=REGION_ANY, region="parietal", seed=0)
    with pytest.raises(ConfigurationError):
        build_mask(spec, only_frontal, t_patches=2)


def test_random_random_counts(sets):
    spec = MaskSpec(strategy=RANDOM_RANDOM, ratio=0.25, seed=9)
    out = build_mask(spec, sets, t_patches=7)
    slots = sets.grid.n_patches * 7
    assert out.masked_slots == int(np.ceil(0.25 * slots))


def test_random_tube_replicates(sets):
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=0.3, seed=2)
    out = build_mask(spec, sets, t_patches=6)
    column = out.mask[:, 0]
    for t in range(1, 6):
        np.testing.assert_array_equal(out.mask[:, t], column)
    assert column.sum() == int(np.ceil(0.3 * sets.grid.n_patches))


def test_window_blocks_contiguous(sets):
    spec = MaskSpec(strategy=WINDOW_RANDOM, ratio=0.5, seed=4)
    out = build_mask(spec, sets, t_patches=3)
    gx, gy, gz = sets.grid.grid_dims
    lattice = out.to_lattice((gx, gy, gz))
    # each chosen 2x2x2 block is fully on or fully off per frame
    for t in range(3):
        frame = lattice[..., t]
        blocks = frame.reshape(gx // 2, 2, gy // 2, 2, gz // 2, 2)
        per_block = blocks.transpose(0, 2, 4, 1, 3, 5).reshape(-1, 8)
        assert np.all((per_block.sum(axis=1) == 0) | (per_block.sum(axis=1) == 8))
    frames = [frozenset(np.flatnonzero(out.mask[:, t])) for t in range(3)]
    assert len(set(frames)) > 1


def _window_oracle(grid_dims, block, ratio, seed, t_patches):
    """WINDOW_RANDOM one block at a time: blocks and the patches in each are
    numbered x-fastest, edge blocks are clipped, and each frame draws
    ceil(ratio * n_blocks) block ids without replacement."""
    gx, gy, gz = grid_dims
    bx, by, bz = block
    blocks = []
    for z0 in range(0, gz, bz):
        for y0 in range(0, gy, by):
            for x0 in range(0, gx, bx):
                blocks.append([x + y * gx + z * gx * gy
                               for z in range(z0, min(z0 + bz, gz))
                               for y in range(y0, min(y0 + by, gy))
                               for x in range(x0, min(x0 + bx, gx))])
    rng = np.random.default_rng(seed)
    mask = np.zeros((gx * gy * gz, t_patches), dtype=bool)
    ids = np.arange(len(blocks))
    k = int(np.ceil(ratio * len(blocks)))
    for t in range(t_patches):
        for b in ids if k >= len(blocks) else rng.choice(ids, size=k, replace=False):
            mask[blocks[b], t] = True
    return mask


@pytest.mark.parametrize("grid_dims,block", [
    ((16, 16, 16), (2, 2, 2)),
    ((3, 5, 7), (2, 2, 2)),   # the block does not divide the grid
    ((4, 2, 6), (1, 1, 1)),
    ((5, 5, 5), (3, 2, 4)),
    ((3, 2, 4), (5, 5, 5)),   # the block is larger than the grid
])
def test_window_random_matches_per_block_oracle(grid_dims, block):
    grid = PatchGrid(grid_dims=grid_dims)
    empty = {region: np.zeros(0, dtype=np.int64) for region in MACROREGIONS}
    sets = PatchSets(grid, empty, empty, empty)
    for ratio in (0.1, 0.5, 1.0):
        for seed in range(3):
            spec = MaskSpec(strategy=WINDOW_RANDOM, ratio=ratio, seed=seed,
                            window_block=block)
            got = build_mask(spec, sets, t_patches=3).mask
            want = _window_oracle(grid_dims, block, ratio, seed, 3)
            assert got.tobytes() == want.tobytes(), (ratio, seed)


def test_full_mask_everything(sets):
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=1.0, seed=0)
    out = build_mask(spec, sets, t_patches=4)
    assert out.mask.all()


def test_mask_tensor_lattice_roundtrip():
    grid_dims = (3, 2, 2)
    n = 12
    mask = np.zeros((n, 2), dtype=bool)
    mask[5, 1] = True  # p = 5 = x2 + y1*3 -> (x=2, y=1, z=0)
    mt = MaskTensor(mask=mask, voxels_per_patch=216)
    lat = mt.to_lattice(grid_dims)
    assert lat.shape == (3, 2, 2, 2)
    assert lat[2, 1, 0, 1]
    assert lat.sum() == 1
    # a non-cubic grid, every slot against p = x + y*Gx + z*Gx*Gy, as a view
    gx, gy, gz = 4, 2, 6
    mask = np.random.default_rng(5).random((gx * gy * gz, 3)) < 0.5
    lat = MaskTensor(mask=mask, voxels_per_patch=8).to_lattice((gx, gy, gz))
    assert lat.shape == (gx, gy, gz, 3) and np.shares_memory(lat, mask)
    for x, y, z in np.ndindex(gx, gy, gz):
        np.testing.assert_array_equal(lat[x, y, z], mask[x + y * gx + z * gx * gy])
    with pytest.raises(ValidationError):
        MaskTensor(mask=mask, voxels_per_patch=8).to_lattice((gx, gy, gz + 1))


# -- application --------------------------------------------------------------

def test_apply_mask_empty_noop(rng):
    tokens = rng.normal(size=(12, 4)).astype(np.float32)
    m = np.zeros(12, dtype=bool)
    out = apply_mask(tokens, m, rng.normal(size=(4,)).astype(np.float32))
    np.testing.assert_array_equal(out, tokens)


def test_apply_mask_replace_learned(rng):
    tokens = rng.normal(size=(10, 4)).astype(np.float32)
    token = rng.normal(size=(4,)).astype(np.float32)
    m = np.ones(10, dtype=bool)
    out = apply_mask(tokens, m, token)
    np.testing.assert_allclose(out, np.tile(token, (10, 1)), rtol=1e-6)
    m2 = np.zeros(10, dtype=bool)
    m2[3] = True
    out2 = apply_mask(tokens, m2, token)
    np.testing.assert_allclose(out2[3], token, rtol=1e-6)
    np.testing.assert_array_equal(out2[~m2], tokens[~m2])


def test_apply_mask_shape_mismatch(rng):
    tokens = rng.normal(size=(10, 4)).astype(np.float32)
    with pytest.raises(ValidationError):
        apply_mask(tokens, np.zeros(9, dtype=bool), np.zeros(4, np.float32))


# -- serialization ------------------------------------------------------------

def test_mask_save_load_roundtrip(tmp_path, sets):
    region = region_with_patches(sets, "any")
    spec = MaskSpec(strategy=REGION_ANY, region=region, ratio=0.6, seed=77)
    out = build_mask(spec, sets, t_patches=9)
    p = tmp_path / "mask.bits"
    save_mask(out, spec, p)
    back, back_spec = load_mask(p)
    np.testing.assert_array_equal(back.mask, out.mask)
    assert back.masked_voxels == out.masked_voxels
    assert back_spec == spec


def test_mask_load_rejects_tampered_sidecar(tmp_path, sets):
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=0.5, seed=1)
    out = build_mask(spec, sets, t_patches=2)
    p = tmp_path / "mask.bits"
    save_mask(out, spec, p)
    sidecar = p.with_suffix(p.suffix + ".json")
    text = sidecar.read_text().replace('"seed": 1', '"seed": 2')
    sidecar.write_text(text)
    with pytest.raises(ValidationError):
        load_mask(p)


# Digests and a sidecar written by the format's first release: mask files
# written then must keep loading, so these bytes may never change.
PINNED_DIGESTS = [
    (MaskSpec(strategy=REGION_ANY, region="frontal"),  # the CLI default
     "718f69c93aa6cde8cec4091398e091c15318b141f68f309101a512f5014db316"),
    (MaskSpec(strategy=WINDOW_RANDOM, window_block=(1, 2, 3)),
     "364ec2395b3b6d9980a7ca503c506c8f2601dcf22b24e6b13e263533daa41d7d"),
]

PINNED_SIDECAR = """{
  "shape": [
    3,
    2
  ],
  "masked_slots": 4,
  "masked_voxels": 64,
  "voxels_per_patch": 8,
  "t_patch_len": 2,
  "spec": {
    "strategy": "WINDOW_RANDOM",
    "region": null,
    "ratio": 0.5,
    "temporal_mode": "TUBE",
    "seed": 4,
    "window_block": [
      1,
      2,
      3
    ]
  },
  "spec_hash": "7765267a55bf798c3189b1b9c84867796dc7771bdad1ea3d95c81abb56c41ca4"
}"""


@pytest.mark.parametrize("spec,digest", PINNED_DIGESTS)
def test_spec_digest_is_pinned(spec, digest):
    assert spec.digest() == digest
    # a block given as a list, as JSON reads it back, is the same spec
    listed = MaskSpec(strategy=spec.strategy, region=spec.region,
                      window_block=list(spec.window_block))
    assert listed.window_block == spec.window_block
    assert listed == spec and listed.digest() == digest


def test_pinned_sidecar_still_loads(tmp_path):
    p = tmp_path / "mask.bits"
    p.write_bytes(bytes([0b10011100]))
    p.with_suffix(".bits.json").write_text(PINNED_SIDECAR)
    tensor, spec = load_mask(p)
    assert spec == MaskSpec(strategy=WINDOW_RANDOM, ratio=0.5, seed=4,
                            window_block=(1, 2, 3))
    np.testing.assert_array_equal(tensor.mask, [[1, 0], [0, 1], [1, 1]])
    assert (tensor.voxels_per_patch, tensor.t_patch_len) == (8, 2)
    # the same tensor and spec are written back byte for byte
    again = tmp_path / "again.bits"
    save_mask(tensor, spec, again)
    assert again.read_bytes() == p.read_bytes()
    assert again.with_suffix(".bits.json").read_text() == PINNED_SIDECAR
