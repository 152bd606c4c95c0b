import gzip
import struct
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak

from regionmae.errors import (
    FormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
    ValidationError,
)
from regionmae.nifti import (
    LabelVolume,
    Volume4D,
    _build_header_bytes,
    parse_header,
    read_nifti,
    write_nifti,
)


def make_raw(order, shape, datatype, data, pixdim=None, vox_offset=352,
             scl=(0.0, 0.0), sform=None, quatern=None, xyzt_units=10,
             magic=b"n+1\x00"):
    """Assemble a minimal NIfTI-1 byte string field by field.

    Deliberately independent of the writer under test: every offset is set
    by hand into a zeroed 348-byte buffer.
    """
    hdr = bytearray(348)
    struct.pack_into(order + "i", hdr, 0, 348)
    dims = [len(shape)] + list(shape) + [1] * (7 - len(shape))
    struct.pack_into(order + "8h", hdr, 40, *dims)
    struct.pack_into(order + "h", hdr, 70, datatype)
    struct.pack_into(order + "h", hdr, 72, data.dtype.itemsize * 8)
    if pixdim is None:
        pixdim = [1.0] * 8
    struct.pack_into(order + "8f", hdr, 76, *pixdim)
    struct.pack_into(order + "f", hdr, 108, float(vox_offset))
    struct.pack_into(order + "2f", hdr, 112, *scl)
    struct.pack_into(order + "B", hdr, 123, xyzt_units)
    if quatern is not None:
        struct.pack_into(order + "h", hdr, 252, 1)  # qform_code
        struct.pack_into(order + "6f", hdr, 256, *quatern)
    if sform is not None:
        struct.pack_into(order + "h", hdr, 254, 2)  # sform_code
        struct.pack_into(order + "12f", hdr, 280, *np.asarray(sform)[:3, :].ravel())
    hdr[344:348] = magic
    payload = np.asarray(data).astype(data.dtype.newbyteorder(order)).tobytes(order="F")
    pad = b"\x00" * (vox_offset - 348)
    return bytes(hdr) + pad + payload


def test_volume_roundtrip(tmp_path, rng):
    data = rng.normal(size=(5, 4, 3, 6)).astype(np.float32)
    affine = np.eye(4)
    affine[:3, 3] = (-10.0, 5.0, 2.5)
    affine[0, 0] = 2.0
    vol = Volume4D(data=data, affine=affine, tr_seconds=0.8)
    p = tmp_path / "vol.nii"
    write_nifti(vol, p)
    raw = p.read_bytes()
    assert raw[348:352] == b"\x00" * 4  # extender: no extension blocks
    (vox_offset,) = struct.unpack("<f", raw[108:112])
    assert vox_offset == 352
    back = read_nifti(p, kind="volume")
    assert isinstance(back, Volume4D)
    np.testing.assert_array_equal(back.data, data)
    np.testing.assert_allclose(back.affine, affine, atol=1e-6)
    assert back.tr_seconds == pytest.approx(0.8, abs=1e-7)


def test_gzip_transparency(tmp_path, rng):
    data = rng.normal(size=(4, 4, 4, 2)).astype(np.float32)
    vol = Volume4D(data=data, affine=np.eye(4), tr_seconds=2.0)
    plain = tmp_path / "v.nii"
    packed = tmp_path / "v.nii.gz"
    write_nifti(vol, plain)
    write_nifti(vol, packed)
    assert plain.read_bytes() == gzip.decompress(packed.read_bytes())
    a = read_nifti(plain, kind="volume")
    b = read_nifti(packed, kind="volume")
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(a.affine, b.affine)


def test_gzip_bytes_independent_of_write_time(tmp_path, rng, monkeypatch):
    vol = Volume4D(data=rng.normal(size=(4, 4, 4, 2)).astype(np.float32),
                   affine=np.eye(4))
    path = tmp_path / "v.nii.gz"
    written = []
    for clock in (1.0e9, 2.0e9):
        monkeypatch.setattr(time, "time", lambda clock=clock: clock)
        write_nifti(vol, path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_label_roundtrip_smallest_dtype(tmp_path):
    labels = np.zeros((6, 5, 4), dtype=np.int32)
    labels[1:3, 1:3, 1:3] = 7
    labels[4, 4, 3] = 200
    lab = LabelVolume(labels=labels, affine=np.diag([2.0, 2.0, 2.0, 1.0]))
    p = tmp_path / "labels.nii"
    write_nifti(lab, p)
    raw = p.read_bytes()
    (datatype,) = struct.unpack("<h", raw[70:72])
    assert datatype == 2  # fits in uint8
    back = read_nifti(p, kind="labels")
    assert isinstance(back, LabelVolume)
    np.testing.assert_array_equal(back.labels, labels)

    big = LabelVolume(labels=labels.astype(np.int32) * 300, affine=np.eye(4))
    p2 = tmp_path / "big.nii"
    write_nifti(big, p2)
    (datatype2,) = struct.unpack("<h", p2.read_bytes()[70:72])
    assert datatype2 == 512  # uint16


def test_scl_scaling_applied(tmp_path):
    data = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    raw = make_raw("<", data.shape, 4, data, scl=(2.0, 1.0))
    p = tmp_path / "scaled.nii"
    p.write_bytes(raw)
    vol = read_nifti(p, kind="volume")
    expect = data.astype(np.float32) * 2.0 + 1.0
    np.testing.assert_array_equal(vol.data[..., 0], expect)


def test_zero_slope_means_unscaled(tmp_path):
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    raw = make_raw("<", data.shape, 16, data, scl=(0.0, 99.0))
    p = tmp_path / "noscale.nii"
    p.write_bytes(raw)
    vol = read_nifti(p, kind="volume")
    np.testing.assert_array_equal(vol.data[..., 0], data)


def test_big_endian_detected(tmp_path):
    data = np.arange(12, dtype=np.int16).reshape(3, 2, 2)
    raw = make_raw(">", data.shape, 4, data)
    p = tmp_path / "be.nii"
    p.write_bytes(raw)
    out = read_nifti(p, kind="labels")
    assert isinstance(out, LabelVolume)
    np.testing.assert_array_equal(out.labels, data)


def test_affine_priority_sform_over_qform(tmp_path):
    data = np.ones((2, 2, 2), dtype=np.int16)
    sform = np.array([[0, -3, 0, 1], [3, 0, 0, 2], [0, 0, 3, 3], [0, 0, 0, 1.0]])
    raw = make_raw("<", data.shape, 4, data, sform=sform,
                   quatern=(0.0, 0.0, 0.0, 9.0, 9.0, 9.0))
    p = tmp_path / "s.nii"
    p.write_bytes(raw)
    out = read_nifti(p, kind="labels")
    np.testing.assert_allclose(out.affine, sform, atol=1e-6)


def test_affine_qform_rotation():
    # Quaternion (a, b, c, d) = (sqrt(.5), 0, 0, sqrt(.5)): 90 degrees about z.
    data = np.ones((2, 2, 2), dtype=np.int16)
    s = np.sqrt(0.5)
    raw = make_raw("<", data.shape, 4, data,
                   pixdim=[1.0, 2.0, 2.0, 2.0, 0, 0, 0, 0],
                   quatern=(0.0, 0.0, s, 10.0, 20.0, 30.0))
    hdr = parse_header(raw)
    aff = hdr.affine()
    expect = np.array([
        [0.0, -2.0, 0.0, 10.0],
        [2.0, 0.0, 0.0, 20.0],
        [0.0, 0.0, 2.0, 30.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    np.testing.assert_allclose(aff, expect, atol=1e-6)


def test_affine_qfac_flips_z():
    data = np.ones((2, 2, 2), dtype=np.int16)
    raw = make_raw("<", data.shape, 4, data,
                   pixdim=[-1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0],
                   quatern=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    aff = parse_header(raw).affine()
    np.testing.assert_allclose(np.diag(aff), [1.0, 1.0, -1.0, 1.0], atol=1e-6)


def test_affine_fallback_pixdim():
    data = np.ones((2, 2, 2), dtype=np.int16)
    raw = make_raw("<", data.shape, 4, data,
                   pixdim=[1.0, 1.5, 2.5, 3.5, 0, 0, 0, 0])
    aff = parse_header(raw).affine()
    np.testing.assert_allclose(aff, np.diag([1.5, 2.5, 3.5, 1.0]))


def test_tr_unit_conversion(tmp_path):
    data = np.zeros((2, 2, 2, 3), dtype=np.float32)
    # xyzt_units = mm | msec = 2 | 16; pixdim[4] = 2000 ms -> 2 s
    raw = make_raw("<", data.shape, 16, data,
                   pixdim=[1, 1, 1, 1, 2000.0, 0, 0, 0], xyzt_units=2 | 16)
    p = tmp_path / "ms.nii"
    p.write_bytes(raw)
    vol = read_nifti(p, kind="volume")
    assert vol.tr_seconds == pytest.approx(2.0)


def test_extensions_preserved(tmp_path, rng):
    data = rng.normal(size=(3, 3, 3, 2)).astype(np.float32)
    ext = struct.pack("<2i", 16, 42) + b"payload!"  # one 16-byte extension
    raw = bytearray(make_raw("<", data.shape, 16, data, vox_offset=352 + len(ext)))
    raw[348] = 1  # extender flag: an extension block follows
    raw[352:352 + len(ext)] = ext
    p = tmp_path / "ext.nii"
    p.write_bytes(bytes(raw))
    back = read_nifti(p, kind="volume")
    np.testing.assert_array_equal(back.data, data)


def test_unknown_kind_rejected_before_reading(tmp_path):
    with pytest.raises(ValidationError, match="label"):
        read_nifti(tmp_path / "absent.nii.gz", kind="label")


def test_bad_magic_rejected(tmp_path):
    data = np.ones((2, 2, 2), dtype=np.int16)
    raw = make_raw("<", data.shape, 4, data, magic=b"xxx\x00")
    p = tmp_path / "bad.nii"
    p.write_bytes(raw)
    with pytest.raises(FormatError):
        read_nifti(p, kind="labels")


def test_truncated_rejected(tmp_path):
    data = np.ones((4, 4, 4), dtype=np.int16)
    raw = make_raw("<", data.shape, 4, data)
    p = tmp_path / "trunc.nii"
    p.write_bytes(raw[:400])
    with pytest.raises(TruncatedFileError):
        read_nifti(p, kind="labels")
    p.write_bytes(raw[:100])
    with pytest.raises(TruncatedFileError):
        read_nifti(p, kind="labels")


@pytest.mark.parametrize("magic, vox_offset, match", [
    (b"ni1\x00", 0, r"\.hdr/\.img pair"),
    (b"n+1\x00", 100, "vox_offset 100 lies inside"),
], ids=["two_file_magic", "offset_inside_header"])
def test_payload_inside_header_rejected(tmp_path, magic, vox_offset, match):
    # read as given, both would return header bytes as voxels
    data = np.arange(16, dtype=np.float32).reshape(2, 2, 2, 2)
    p = tmp_path / "v.nii"
    p.write_bytes(make_raw("<", data.shape, 16, data, vox_offset=vox_offset, magic=magic))
    with pytest.raises(FormatError, match=match):
        read_nifti(p, kind="volume")


def test_read_errors_name_file(tmp_path):
    data = np.ones((4, 4, 4), dtype=np.int16)
    raw = make_raw("<", data.shape, 4, data)
    cases = {
        "magic.nii": (make_raw("<", data.shape, 4, data, magic=b"xxx\x00"), FormatError),
        "short.nii": (raw[:100], TruncatedFileError),
        "payload.nii": (raw[:400], TruncatedFileError),
        "offset.nii": (raw[:108] + struct.pack("<f", np.inf) + raw[112:],
                       TruncatedFileError),
        "complex.nii": (make_raw("<", (2, 2, 2), 32, np.ones((2, 2, 2))),
                        UnsupportedDatatypeError),
    }
    for name, (content, error) in cases.items():
        p = tmp_path / name
        p.write_bytes(content)
        with pytest.raises(error) as info:
            read_nifti(p, kind="volume")
        assert type(info.value) is error
        assert str(info.value).startswith(f"{p}: ")


def test_unsupported_datatype_rejected(tmp_path):
    # 32 is DT_COMPLEX64, which the reader does not handle.
    raw = make_raw("<", (2, 2, 2), 32, np.ones((2, 2, 2), dtype=np.float64))
    p = tmp_path / "cplx.nii"
    p.write_bytes(raw)
    with pytest.raises(UnsupportedDatatypeError):
        read_nifti(p, kind="volume")


def test_oversized_axis_rejected():
    with pytest.raises(ValidationError):
        _build_header_bytes((40000, 2, 2), np.dtype(np.float32), np.eye(4), 1.0)


def test_trailing_singleton_squeezed(tmp_path):
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2, 1, 1)
    raw = make_raw("<", data.shape, 16, data)
    p = tmp_path / "sq.nii"
    p.write_bytes(raw)
    vol = read_nifti(p, kind="volume")
    assert vol.data.shape == (2, 2, 2, 1)


def _written_cases(rng):
    """(volume, stored dtype, payload) for each writer dtype, a non-cubic shape included."""
    affine = np.diag([2.0, 3.0, 4.0, 1.0])
    labels = rng.integers(0, 4, size=(7, 5, 3))
    f32 = rng.normal(size=(5, 4, 3, 6)).astype(np.float32)
    f32[:2] = 0.0  # a run of zeros, as outside the brain
    f64 = rng.normal(size=(3, 3, 3, 2))
    cases = [
        (Volume4D(data=f32, affine=affine, tr_seconds=0.8), np.float32, f32),
        (Volume4D(data=f64, affine=affine), np.float64, f64),
        (Volume4D(data=f32[:, :, :1, :1], affine=affine), np.float32, f32[:, :, :1, :1]),
    ]
    for scale, dtype in ((1, np.uint8), (300, np.uint16), (70000, np.int32)):
        lab = labels * scale
        cases.append((LabelVolume(labels=lab, affine=affine), dtype, lab))
    return cases


def test_gzip_stream_is_header_plus_payload(tmp_path, rng):
    for i, (vol, dtype, data) in enumerate(_written_cases(rng)):
        path = tmp_path / f"v{i}.nii.gz"
        write_nifti(vol, path)
        raw = path.read_bytes()
        # fixed: no name, mtime 0, XFL 2, OS 255
        assert raw[:10] == bytes.fromhex("1f8b08000000000002ff")
        tr = vol.tr_seconds if isinstance(vol, Volume4D) else 1.0
        expect = (_build_header_bytes(data.shape, np.dtype(dtype), vol.affine, tr)
                  + np.asarray(data, dtype=dtype).tobytes(order="F"))
        assert gzip.decompress(raw) == expect
        with gzip.open(path, "rb") as fh:
            assert fh.read() == expect
        assert struct.unpack("<h", expect[70:72])[0] == {
            np.float32: 16, np.float64: 64, np.uint8: 2, np.uint16: 512, np.int32: 8,
        }[dtype]


def test_written_file_matches_hand_layout(tmp_path, rng):
    codes = {np.float32: 16, np.float64: 64, np.uint8: 2, np.uint16: 512, np.int32: 8}
    for i, (vol, dtype, data) in enumerate(_written_cases(rng)):
        data = np.asarray(data, dtype=dtype)
        tr = vol.tr_seconds if isinstance(vol, Volume4D) else 1.0
        zooms = np.sqrt((vol.affine[:3, :3] ** 2).sum(axis=0))
        expect = bytearray(make_raw("<", data.shape, codes[dtype], data,
                                    pixdim=[1.0, *zooms, tr, 1.0, 1.0, 1.0],
                                    sform=vol.affine))
        expect[38:39] = b"r"  # regular
        path = tmp_path / f"v{i}.nii"
        write_nifti(vol, path)
        assert path.read_bytes() == expect


def _failing_compressobj(real, fail_at, seen, directory):
    class Failing:
        def __init__(self, *args):
            self.inner = real(*args)
            self.calls = 0

        def compress(self, data):
            self.calls += 1
            if self.calls == fail_at:
                seen.extend(p.name for p in directory.iterdir())
                raise RuntimeError("compressor failed")
            return self.inner.compress(data)

        def flush(self):
            return self.inner.flush()

    return Failing


@pytest.mark.parametrize("existing", [True, False])
def test_failed_write_leaves_target_untouched(tmp_path, rng, monkeypatch, existing):
    path = tmp_path / "v.nii.gz"
    if existing:
        path.write_bytes(b"old bytes")
    vol = Volume4D(data=rng.normal(size=(6, 6, 6, 4)).astype(np.float32),
                   affine=np.eye(4))
    seen = []
    monkeypatch.setattr(zlib, "compressobj",
                        _failing_compressobj(zlib.compressobj, 3, seen, tmp_path))
    with pytest.raises(RuntimeError, match="compressor failed"):
        write_nifti(vol, path)
    # the header and one slice went to a temporary file, never to the target
    assert any(name.endswith(".tmp") for name in seen)
    assert [p.name for p in tmp_path.iterdir()] == (["v.nii.gz"] if existing else [])
    if existing:
        assert path.read_bytes() == b"old bytes"


def test_big_endian_float_volume_scaled(tmp_path, rng):
    for code, dtype in ((16, np.float32), (64, np.float64)):
        data = rng.normal(size=(3, 4, 2, 2)).astype(dtype)
        out = read_both(tmp_path, make_raw(">", data.shape, code, data, scl=(2.0, 1.0)),
                        "volume")
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, data * dtype(2.0) + dtype(1.0))


def test_truncated_gzip_names_file(tmp_path, rng):
    path = tmp_path / "v.nii.gz"
    write_nifti(Volume4D(data=rng.normal(size=(4, 4, 4, 2)), affine=np.eye(4)), path)
    raw = path.read_bytes()
    for cut in (len(raw) // 2, len(raw) - 4):  # inside the stream, inside the trailer
        path.write_bytes(raw[:cut])
        with pytest.raises(TruncatedFileError, match="v.nii.gz"):
            read_nifti(path, kind="volume")


def test_corrupt_gzip_names_file(tmp_path, rng):
    path = tmp_path / "v.nii.gz"
    write_nifti(Volume4D(data=rng.normal(size=(4, 4, 4, 2)), affine=np.eye(4)), path)
    raw = bytearray(path.read_bytes())
    corrupt = raw.copy()
    corrupt[10] = 0xFF  # reserved deflate block type
    crc = raw.copy()
    crc[-8] ^= 0xFF  # CRC-32 mismatch
    for bad in (corrupt, crc, b"not gzip at all"):
        path.write_bytes(bytes(bad))
        with pytest.raises(FormatError, match="v.nii.gz"):
            read_nifti(path, kind="volume")


def result_or_error(fn, *args):
    """fn's result, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def write_as(path, raw):
    path.write_bytes(gzip.compress(raw, mtime=0) if path.suffix == ".gz" else raw)
    return path


@pytest.mark.parametrize("name", ["big.nii", "big.nii.gz"])
@pytest.mark.parametrize("rank", [5, 7])
def test_voxel_count_beyond_int64_is_truncation(tmp_path, name, rank):
    # 32767**rank voxels overflow an int64 count; the file holds 8 payload bytes
    raw = make_raw("<", (32767,) * rank, 16, np.ones(2, dtype=np.float32))
    path = write_as(tmp_path / name, raw)
    with pytest.raises(TruncatedFileError) as info:
        read_nifti(path, kind="volume")
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", ["claim.nii", "claim.nii.gz"])
def test_declared_payload_checked_before_allocation(tmp_path, name):
    # a 360-byte file whose header declares a 96^3 x 8 float32 payload (28 MiB)
    raw = make_raw("<", (96, 96, 96, 8), 16, np.ones(2, dtype=np.float32))
    assert len(raw) == 360
    path = write_as(tmp_path / name, raw)
    error, peak = traced_peak(result_or_error, read_nifti, path, "volume")
    assert type(error) is TruncatedFileError
    assert str(error).startswith(f"{path}: ")
    assert peak < 2**20


def test_streamed_read_peak_is_output_plus_a_frame(tmp_path, rng):
    data = rng.normal(size=(64, 64, 48, 6)).astype(np.float32)
    path = tmp_path / "v.nii.gz"
    write_nifti(Volume4D(data=data, affine=np.eye(4)), path)
    vol, peak = traced_peak(read_nifti, path, "volume")
    np.testing.assert_array_equal(vol.data, data)
    frame = data[..., 0].nbytes
    # the whole inflated payload or its layout copy would add 4.7 MB
    assert peak <= data.nbytes + 2 * frame + 2**20


def read_both(tmp_path, raw, kind):
    """The array read from ``raw`` stored as .nii and as .nii.gz, checked to agree."""
    outs = [read_nifti(write_as(tmp_path / name, raw), kind=kind)
            for name in ("v.nii", "v.nii.gz")]
    plain, packed = (out.labels if kind == "labels" else out.data for out in outs)
    assert plain.flags.c_contiguous and packed.flags.c_contiguous
    assert plain.dtype == packed.dtype and plain.tobytes() == packed.tobytes()
    return plain


def test_two_gzip_members_read_as_one(tmp_path, rng):
    data = rng.normal(size=(5, 4, 3, 3)).astype(np.float32)
    raw = make_raw("<", data.shape, 16, data)
    cut = 352 + data[..., 0].nbytes + 10  # inside the second frame
    members = [bytearray(gzip.compress(part, mtime=0)) for part in (raw[:cut], raw[cut:])]
    path = tmp_path / "v.nii.gz"
    path.write_bytes(b"".join(members))
    vol = read_nifti(path, kind="volume")
    assert vol.data.dtype == np.float32 and vol.data.tobytes() == data.tobytes()
    members[1][-8] ^= 0xFF  # the second member's CRC-32
    path.write_bytes(b"".join(members))
    with pytest.raises(FormatError, match="v.nii.gz"):
        read_nifti(path, kind="volume")


def test_bytes_after_payload_ignored(tmp_path, rng):
    data = rng.normal(size=(3, 4, 2, 2)).astype(np.float32)
    raw = make_raw("<", data.shape, 16, data) + b"trailing bytes"
    assert read_both(tmp_path, raw, "volume").tobytes() == data.tobytes()


def test_scaled_labels(tmp_path):
    labels = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    out = read_both(tmp_path, make_raw(">", labels.shape, 4, labels, scl=(2.0, 1.0)),
                    "labels")
    assert out.dtype == np.int32
    np.testing.assert_array_equal(out, labels * 2 + 1)
    halves = (labels / 2).astype(np.float32)
    out = read_both(tmp_path, make_raw("<", labels.shape, 16, halves, scl=(2.0, 0.0)),
                    "labels")
    np.testing.assert_array_equal(out, labels)
    p = write_as(tmp_path / "half.nii.gz",
                 make_raw("<", labels.shape, 16, halves, scl=(1.0, 0.5)))
    with pytest.raises(ValidationError, match="half.nii.gz: label volume contains non-integer"):
        read_nifti(p, kind="labels")


# Valid files to mutate: a scaled 4D float32 volume and an int16 label volume.
_FUZZ_BASES = {
    "volume": make_raw("<", (3, 4, 2, 2), 16,
                       np.linspace(-2.0, 2.0, 48, dtype=np.float32).reshape(3, 4, 2, 2),
                       scl=(2.0, 0.5)),
    "labels": make_raw(">", (3, 4, 2), 4, np.arange(24, dtype=np.int16).reshape(3, 4, 2)),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_FUZZ_BASES)),
       suffix=st.sampled_from([".nii", ".nii.gz", ".nii.gz stream"]),
       edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=4),
       cut=st.none() | st.integers(0, 2**16))
def test_mutated_file_raises_only_package_errors(kind, suffix, edits, cut):
    """A mutated or truncated file reads or raises a regionmae.errors type naming it.

    ".nii.gz" compresses the mutated bytes (header and payload fuzzing behind
    a valid stream); ".nii.gz stream" mutates the compressed bytes themselves.
    """
    def mutate(content):
        content = bytearray(content)
        for pos, value in edits:
            content[pos % len(content)] = value
        return bytes(content[:cut])

    raw = _FUZZ_BASES[kind]
    if suffix == ".nii":
        content = mutate(raw)
    elif suffix == ".nii.gz":
        content = gzip.compress(mutate(raw), mtime=0)
    else:
        content = mutate(gzip.compress(raw, mtime=0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("v" + suffix.split()[0])
        path.write_bytes(content)
        with np.errstate(all="ignore"):  # scaled garbage may overflow or be NaN
            result, peak = traced_peak(result_or_error, read_nifti, path, kind)
    if isinstance(result, Exception):
        assert type(result).__module__ == "regionmae.errors", repr(result)
        assert str(result).startswith(f"{path}: ")
        # nothing sized by the header's claims alone: the output (at most 4
        # bytes per payload byte), a frame and its inflated copy, of no more
        # payload than the file's bytes can inflate to
        ceiling = len(content) * (1032 if path.suffix == ".gz" else 1)
        assert peak <= 6 * ceiling + 2**20, (peak, len(content))
