import json
from collections import Counter

import numpy as np
import pytest

from regionmae.atlas import (
    CRITERIA,
    MACROREGIONS,
    PatchGrid,
    PatchSets,
    RegionMap,
    classify_patches,
    patch_set_report,
    render_report,
)
from regionmae.errors import ConfigurationError, GeometryError, ValidationError
from regionmae.nifti import LabelVolume


def simple_region_map(n_labels=8):
    # labels 1..n cycle through the seven macroregions
    return RegionMap({l: MACROREGIONS[(l - 1) % len(MACROREGIONS)] for l in range(1, n_labels + 1)})


def brute_force(labels, region_map, purity=0.70, majority=0.5, ps=6):
    """Independent triple-loop counter over every patch and voxel."""
    gx, gy, gz = (s // ps for s in labels.shape)
    vpp = ps ** 3
    out = {r: {c: set() for c in CRITERIA} for r in MACROREGIONS}
    for pz in range(gz):
        for py in range(gy):
            for px in range(gx):
                p = px + py * gx + pz * gx * gy
                block = labels[px * ps:(px + 1) * ps,
                               py * ps:(py + 1) * ps,
                               pz * ps:(pz + 1) * ps]
                hist = Counter(int(v) for v in block.ravel())
                n_labeled = sum(c for l, c in hist.items() if l != 0)
                dom_count = max((c for l, c in hist.items() if l != 0), default=0)
                patch_pure = n_labeled > 0 and dom_count / n_labeled >= purity
                for region in MACROREGIONS:
                    cnt = sum(c for l, c in hist.items()
                              if region_map.mapping.get(l) == region)
                    if cnt >= 1:
                        out[region]["any"].add(p)
                    if cnt / vpp > majority:
                        out[region]["majority"].add(p)
                        if patch_pure:
                            out[region]["pure"].add(p)
    return out


# -- patch grid ---------------------------------------------------------------

def test_grid_defaults():
    grid = PatchGrid()
    assert grid.volume_shape == (96, 96, 96)
    assert grid.n_patches == 4096
    assert grid.voxels_per_patch == 216


def test_grid_for_shape_divisibility():
    grid = PatchGrid.for_shape((48, 48, 48))
    assert grid.grid_dims == (8, 8, 8)
    with pytest.raises(GeometryError):
        PatchGrid.for_shape((50, 48, 48))


def test_patch_index_volume_matches_scalar():
    grid = PatchGrid.for_shape((12, 12, 12))
    vol = grid.patch_index_volume()
    for x, y, z in [(0, 0, 0), (5, 7, 11), (11, 0, 6), (6, 6, 6)]:
        assert vol[x, y, z] == x // 6 + (y // 6) * 2 + (z // 6) * 4


# -- region map ---------------------------------------------------------------

def test_region_map_basics():
    rm = RegionMap({1: "frontal", 2: "frontal", 3: "cerebellum"})
    assert rm.mapping == {1: "frontal", 2: "frontal", 3: "cerebellum"}
    assert rm.labels_for("frontal") == [1, 2]


def test_region_map_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        RegionMap({})
    with pytest.raises(ConfigurationError):
        RegionMap({1: "cortex"})
    with pytest.raises(ValidationError):
        RegionMap({0: "frontal"})


def test_region_map_csv_roundtrip(tmp_path):
    rm = RegionMap({1: "frontal", 5: "limbic", 9: "subcortical"})
    p = tmp_path / "regions.csv"
    rm.to_csv(p)
    back = RegionMap.from_csv(p)
    assert back.mapping == rm.mapping


def test_region_map_csv_headerless(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,frontal\n2,parietal\n")
    rm = RegionMap.from_csv(p)
    assert rm.mapping == {1: "frontal", 2: "parietal"}


def test_region_map_csv_duplicate_rejected(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("label,macroregion\n1,frontal\n1,parietal\n")
    with pytest.raises(ConfigurationError):
        RegionMap.from_csv(p)


# -- classification -----------------------------------------------------------

def patch_block(labels, px, py, pz, values, ps=6):
    """Fill one 6x6x6 patch from a flat list of 216 label values."""
    block = np.asarray(values, dtype=np.int32).reshape(ps, ps, ps)
    labels[px * ps:(px + 1) * ps, py * ps:(py + 1) * ps, pz * ps:(pz + 1) * ps] = block


def test_counting_cases():
    labels = np.zeros((12, 12, 12), dtype=np.int32)
    rm = RegionMap({1: "frontal", 2: "parietal"})

    # patch 0: all one frontal label -> any + majority + pure
    patch_block(labels, 0, 0, 0, [1] * 216)
    # patch 1: 109 frontal / 107 background -> majority (strict > 0.5)
    patch_block(labels, 1, 0, 0, [1] * 109 + [0] * 107)
    # patch 2 (= (0,1,0) -> index 2): 108 frontal -> any only
    patch_block(labels, 0, 1, 0, [1] * 108 + [0] * 108)
    # patch 3: {1: 150, 2: 50, 0: 16} -> purity 150/200 = 0.75 -> pure
    patch_block(labels, 1, 1, 0, [1] * 150 + [2] * 50 + [0] * 16)

    sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)), rm)
    f = {c: set(sets.patch_set("frontal", c)) for c in CRITERIA}
    assert f["any"] == {0, 1, 2, 3}
    assert f["majority"] == {0, 1, 3}
    assert f["pure"] == {0, 1, 3}
    assert set(sets.patch_set("parietal", "any")) == {3}
    assert set(sets.patch_set("parietal", "majority")) == set()


def test_purity_boundary_exact():
    labels = np.zeros((6, 6, 6), dtype=np.int32)
    rm = RegionMap({1: "frontal", 2: "parietal"})
    grid = PatchGrid.for_shape((6, 6, 6))

    # 140/200 = 0.70 exactly: pure
    patch_block(labels, 0, 0, 0, [1] * 140 + [2] * 60 + [0] * 16)
    sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)), rm, grid=grid)
    assert list(sets.patch_set("frontal", "pure")) == [0]

    # 139/200 = 0.695: majority but not pure
    patch_block(labels, 0, 0, 0, [1] * 139 + [2] * 61 + [0] * 16)
    sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)), rm, grid=grid)
    assert list(sets.patch_set("frontal", "majority")) == [0]
    assert list(sets.patch_set("frontal", "pure")) == []


def test_unlabeled_patch_in_no_set():
    labels = np.zeros((6, 6, 6), dtype=np.int32)
    sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)),
                            simple_region_map(), grid=PatchGrid.for_shape((6, 6, 6)))
    for region in MACROREGIONS:
        for criterion in CRITERIA:
            assert len(sets.patch_set(region, criterion)) == 0


def test_brute_force_equivalence(rng):
    rm = simple_region_map(8)
    for trial in range(6):
        r = np.random.default_rng(100 + trial)
        # blocky atlases so majority/pure sets are non-trivial
        coarse = r.integers(0, 9, size=(4, 4, 4)).astype(np.int32)
        labels = np.repeat(np.repeat(np.repeat(coarse, 6, 0), 6, 1), 6, 2)
        noise = r.integers(0, 9, size=labels.shape).astype(np.int32)
        labels = np.where(r.uniform(size=labels.shape) < 0.25, noise, labels)

        sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)), rm,
                                grid=PatchGrid.for_shape(labels.shape))
        expect = brute_force(labels, rm)
        for region in MACROREGIONS:
            for criterion in CRITERIA:
                got = set(int(i) for i in sets.patch_set(region, criterion))
                assert got == expect[region][criterion], (region, criterion, trial)


def test_inclusion_and_disjointness(rng):
    rm = simple_region_map(8)
    labels = rng.integers(0, 9, size=(24, 24, 24)).astype(np.int32)
    labels[:12] = 1  # give one region large contiguous support
    sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)), rm,
                            grid=PatchGrid.for_shape(labels.shape))
    majority_union: set[int] = set()
    for region in MACROREGIONS:
        pure = set(int(i) for i in sets.patch_set(region, "pure"))
        maj = set(int(i) for i in sets.patch_set(region, "majority"))
        any_ = set(int(i) for i in sets.patch_set(region, "any"))
        assert pure <= maj <= any_
        assert not (majority_union & maj)
        majority_union |= maj


def test_report_footprints():
    labels = np.zeros((12, 12, 12), dtype=np.int32)
    patch_block(labels, 0, 0, 0, [1] * 216)
    patch_block(labels, 1, 0, 0, [1] * 216)
    patch_block(labels, 0, 1, 0, [1] * 120 + [0] * 96)
    sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)),
                            RegionMap({1: "occipital"}),
                            grid=PatchGrid.for_shape((12, 12, 12)))
    rows = {(r["region"], r["criterion"]): r for r in patch_set_report(sets)}
    assert rows[("occipital", "any")]["n_patches"] == 3
    assert rows[("occipital", "any")]["n_voxels"] == 3 * 216
    assert rows[("occipital", "majority")]["n_patches"] == 3
    assert rows[("occipital", "pure")]["n_voxels"] == 3 * 216
    assert rows[("frontal", "any")] == {
        "region": "frontal", "criterion": "any", "n_patches": 0, "n_voxels": 0,
    }
    text = render_report(patch_set_report(sets))
    assert "occipital" in text and "648" in text


def test_patchsets_json_roundtrip(tmp_path, rng):
    labels = rng.integers(0, 5, size=(12, 12, 12)).astype(np.int32)
    sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)),
                            simple_region_map(4),
                            grid=PatchGrid.for_shape((12, 12, 12)))
    p = tmp_path / "sets.json"
    sets.save(p)
    back = PatchSets.load(p)
    assert back.grid == sets.grid
    for region in MACROREGIONS:
        for criterion in CRITERIA:
            np.testing.assert_array_equal(back.patch_set(region, criterion),
                                          sets.patch_set(region, criterion))
    assert set(json.loads(p.read_text())) == {
        "patch_size", "grid_dims", "purity_threshold", "majority_threshold", "regions"}


def test_patchsets_json_with_legacy_histograms_loads_same_sets(tmp_path, rng):
    labels = rng.integers(0, 5, size=(12, 12, 12)).astype(np.int32)
    grid = PatchGrid.for_shape(labels.shape)
    sets = classify_patches(LabelVolume(labels=labels, affine=np.eye(4)),
                            simple_region_map(4), grid=grid)
    # the per-patch histogram keys earlier versions wrote beside the sets
    pidx = grid.patch_index_volume().ravel()
    counts = np.bincount(pidx * 5 + labels.ravel(),
                         minlength=grid.n_patches * 5).reshape(-1, 5)[:, 1:]
    blob = sets.to_json_dict()
    blob.update(hist_labels=[1, 2, 3, 4], hist_counts=counts.tolist(),
                n_labeled=counts.sum(axis=1).tolist(),
                dominant_label=(counts.argmax(axis=1) + 1).tolist())
    p = tmp_path / "legacy.json"
    p.write_text(json.dumps(blob))
    # grid, thresholds and every region's three sets
    assert PatchSets.load(p).to_json_dict() == sets.to_json_dict()


def test_shape_mismatch_rejected():
    labels = np.zeros((12, 12, 12), dtype=np.int32)
    with pytest.raises(GeometryError):
        classify_patches(LabelVolume(labels=labels, affine=np.eye(4)),
                         simple_region_map(), grid=PatchGrid())
