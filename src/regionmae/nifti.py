"""Reader and writer for NIfTI-1 volumes (.nii and .nii.gz).

Implements the single-file variant of the format: a 348-byte binary header,
an optional extension block, and a Fortran-ordered voxel payload starting at
``vox_offset``. Both byte orders are accepted on read (detected from the
plausibility of ``dim[0]``); files are always written little-endian.
Extension blocks are carried through round-trips as opaque bytes and never
interpreted.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
    ValidationError,
)

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"

# NIfTI-1 datatype codes we support.
DT_UINT8 = 2
DT_INT16 = 4
DT_INT32 = 8
DT_FLOAT32 = 16
DT_FLOAT64 = 64
DT_INT8 = 256
DT_UINT16 = 512

_DTYPE_FOR_CODE = {
    DT_UINT8: np.dtype(np.uint8),
    DT_INT16: np.dtype(np.int16),
    DT_INT32: np.dtype(np.int32),
    DT_FLOAT32: np.dtype(np.float32),
    DT_FLOAT64: np.dtype(np.float64),
    DT_INT8: np.dtype(np.int8),
    DT_UINT16: np.dtype(np.uint16),
}
_CODE_FOR_DTYPE = {v: k for k, v in _DTYPE_FOR_CODE.items()}

# Temporal-unit codes from the xyzt_units bitfield (bits 3-5).
_TIME_UNIT_SCALE = {0: 1.0, 8: 1.0, 16: 1e-3, 24: 1e-6}

_HDR_FMT = "<i10s18sihcB8h3f4h8f3fhBB4f2i80s24s2h6f4f4f4f16s4s"


@dataclass
class NiftiHeader:
    """Parsed view of the fixed 348-byte NIfTI-1 header."""

    dims: tuple[int, ...]  # dim[0..7]: rank then per-axis sizes
    datatype_code: int
    pixdim: tuple[float, ...]  # pixdim[0..7]: qfac then grid spacings
    vox_offset: int
    scl_slope: float = 0.0
    scl_inter: float = 0.0
    qform_code: int = 0
    sform_code: int = 0
    quatern: tuple[float, float, float] = (0.0, 0.0, 0.0)
    qoffset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    srow: tuple[float, ...] = (0.0,) * 12  # srow_x, srow_y, srow_z flattened
    xyzt_units: int = 0
    magic: bytes = MAGIC_SINGLE
    byte_order: str = "<"
    extensions: bytes = b""  # raw extension block, excluding the 4-byte extender

    @property
    def rank(self) -> int:
        return self.dims[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.dims[1 : 1 + self.rank])

    def tr_seconds(self) -> float:
        """Repetition time in seconds; 1.0 when the header carries none."""
        tr = float(self.pixdim[4]) * _TIME_UNIT_SCALE.get(self.xyzt_units & 0x38, 1.0)
        return tr if tr > 0 else 1.0

    def affine(self) -> np.ndarray:
        """Voxel-to-mm affine: sform if set, else qform, else pixdim diagonal."""
        if self.sform_code > 0:
            aff = np.eye(4)
            aff[0, :] = self.srow[0:4]
            aff[1, :] = self.srow[4:8]
            aff[2, :] = self.srow[8:12]
            return aff
        if self.qform_code > 0:
            return _quaternion_affine(self.quatern, self.qoffset, self.pixdim)
        return np.diag([self.pixdim[1], self.pixdim[2], self.pixdim[3], 1.0])


@dataclass
class Volume4D:
    """A time-indexed voxel grid with spatial affine and sampling interval."""

    data: np.ndarray  # [X, Y, Z, T] float
    affine: np.ndarray  # 4x4 voxel -> mm
    tr_seconds: float = 1.0
    brain_mask: np.ndarray | None = None  # [X, Y, Z] bool

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.ndim == 3:
            self.data = self.data[..., np.newaxis]
        if self.data.ndim != 4:
            raise ValidationError(f"Volume4D expects 3D or 4D data, got {self.data.ndim}D")
        self.affine = np.asarray(self.affine, dtype=np.float64)
        if self.affine.shape != (4, 4):
            raise ValidationError("affine must be 4x4")
        if not np.allclose(self.affine[3], [0, 0, 0, 1]):
            raise ValidationError("affine last row must be (0, 0, 0, 1)")
        if self.tr_seconds <= 0:
            raise ValidationError("tr_seconds must be positive")

    @property
    def spatial_shape(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def n_timepoints(self) -> int:
        return self.data.shape[3]


@dataclass
class LabelVolume:
    """Integer-labeled 3D volume; label 0 is background/unlabeled."""

    labels: np.ndarray  # [X, Y, Z] int
    affine: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 3:
            raise ValidationError("LabelVolume expects 3D labels")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValidationError("labels must be an integer array")
        if self.labels.min(initial=0) < 0:
            raise ValidationError("labels must be non-negative")
        self.affine = np.asarray(self.affine, dtype=np.float64)


def _quaternion_affine(quatern, qoffset, pixdim) -> np.ndarray:
    b, c, d = quatern
    a = np.sqrt(max(0.0, 1.0 - (b * b + c * c + d * d)))
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    qfac = -1.0 if pixdim[0] < 0 else 1.0
    aff = np.eye(4)
    aff[:3, :3] = rot @ np.diag([pixdim[1], pixdim[2], pixdim[3] * qfac])
    aff[:3, 3] = qoffset
    return aff


def _open_for_read(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _open_for_write(path: Path):
    if path.suffix == ".gz":
        # mtime=0 keeps the header, and so the file bytes, independent of the clock
        return gzip.GzipFile(path, "wb", compresslevel=9, mtime=0)
    return open(path, "wb")


def parse_header(raw: bytes) -> NiftiHeader:
    """Parse the fixed header from the first 348 bytes of a file."""
    if len(raw) < HEADER_SIZE:
        raise TruncatedFileError(f"file shorter than the {HEADER_SIZE}-byte header")
    magic = raw[344:348]
    if magic[:3] not in (b"n+1", b"ni1"):
        raise FormatError(f"malformed magic {magic!r}")

    byte_order = None
    for order in ("<", ">"):
        (dim0,) = struct.unpack(order + "h", raw[40:42])
        if 1 <= dim0 <= 7:
            byte_order = order
            break
    if byte_order is None:
        raise FormatError("dim[0] implausible in either byte order")

    fields = struct.unpack(byte_order + _HDR_FMT[1:], raw[:HEADER_SIZE])
    # Field indices follow the struct layout; unused legacy fields are skipped.
    dims = tuple(int(v) for v in fields[7:15])
    intent_code, datatype, bitpix, slice_start = fields[18:22]
    pixdim = tuple(float(v) for v in fields[22:30])
    vox_offset, scl_slope, scl_inter = fields[30:33]
    xyzt_units = fields[35]
    qform_code, sform_code = fields[44:46]
    quatern = tuple(float(v) for v in fields[46:49])
    qoffset = tuple(float(v) for v in fields[49:52])
    srow = tuple(float(v) for v in fields[52:64])

    if any(s <= 0 for s in dims[1 : 1 + dims[0]]):
        raise FormatError(f"non-positive axis size in dim={dims}")
    return NiftiHeader(
        dims=dims,
        datatype_code=int(datatype),
        pixdim=pixdim,
        vox_offset=int(round(vox_offset)),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        qform_code=int(qform_code),
        sform_code=int(sform_code),
        quatern=quatern,
        qoffset=qoffset,
        srow=srow,
        xyzt_units=int(xyzt_units),
        magic=magic,
        byte_order=byte_order,
    )


def _read_payload(raw: bytes, header: NiftiHeader) -> np.ndarray:
    code = header.datatype_code
    if code not in _DTYPE_FOR_CODE:
        raise UnsupportedDatatypeError(f"datatype code {code} not supported")
    dtype = _DTYPE_FOR_CODE[code].newbyteorder(header.byte_order)
    shape = header.shape
    count = int(np.prod(shape))
    offset = header.vox_offset
    if len(raw) < offset + count * dtype.itemsize:
        raise TruncatedFileError(
            f"payload truncated: need {count * dtype.itemsize} bytes at offset {offset}, "
            f"file has {len(raw) - offset}"
        )
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    data = flat.reshape(shape, order="F")
    return np.ascontiguousarray(data.astype(dtype.newbyteorder("=")))


def _squeeze_to_rank(data: np.ndarray, max_rank: int) -> np.ndarray:
    while data.ndim > max_rank:
        if data.shape[-1] != 1:
            raise FormatError(f"cannot reduce shape {data.shape} to {max_rank}D")
        data = data[..., 0]
    return data


def read_nifti(path, kind: str = "auto") -> Volume4D | LabelVolume:
    """Read a NIfTI-1 file.

    ``kind`` selects the returned type: "volume" forces :class:`Volume4D`,
    "labels" forces :class:`LabelVolume`, and "auto" returns labels for
    unscaled 3D integer data and a volume otherwise. Voxel values are scaled
    by scl_slope/scl_inter when the slope is non-zero.
    """
    path = Path(path)
    with _open_for_read(path) as fh:
        raw = fh.read()
    header = parse_header(raw)
    data = _read_payload(raw, header)

    if len(raw) > HEADER_SIZE + 4 and raw[HEADER_SIZE] != 0:
        header.extensions = bytes(raw[HEADER_SIZE + 4 : header.vox_offset])

    slope, inter = header.scl_slope, header.scl_inter
    scaled = np.isfinite(slope) and slope != 0.0 and not (slope == 1.0 and inter == 0.0)
    affine = header.affine()

    is_integer = np.issubdtype(data.dtype, np.integer)
    if kind == "auto":
        kind = "labels" if (header.rank == 3 and is_integer and not scaled) else "volume"

    if kind == "labels":
        data = _squeeze_to_rank(data, 3)
        if scaled:
            data = data * slope + inter
        if not np.issubdtype(data.dtype, np.integer):
            rounded = np.rint(data)
            if not np.array_equal(rounded, data):
                raise ValidationError("label volume contains non-integer values")
            data = rounded.astype(np.int32)
        return LabelVolume(labels=data.astype(np.int32), affine=affine)

    if kind != "volume":
        raise ValidationError(f"unknown kind {kind!r}")
    data = _squeeze_to_rank(data, 4)
    if data.ndim == 3:
        data = data[..., np.newaxis]
    out_dtype = np.float64 if data.dtype == np.float64 else np.float32
    data = data.astype(out_dtype)
    if scaled:
        data = data * out_dtype(slope) + out_dtype(inter)
    return Volume4D(data=data, affine=affine, tr_seconds=header.tr_seconds())


def _pick_label_dtype(max_label: int) -> np.dtype:
    if max_label <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if max_label <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


def _build_header_bytes(
    shape: tuple[int, ...],
    dtype: np.dtype,
    affine: np.ndarray,
    tr_seconds: float,
    extensions: bytes,
) -> bytes:
    for size in shape:
        if size > np.iinfo(np.int16).max:
            raise ValidationError(
                f"axis size {size} exceeds the 16-bit NIfTI-1 header dim field"
            )
    if len(shape) > 7:
        raise ValidationError("at most 7 axes supported")
    dims = [len(shape)] + list(shape) + [1] * (7 - len(shape))
    zooms = np.sqrt((np.asarray(affine)[:3, :3] ** 2).sum(axis=0))
    pixdim = [1.0, float(zooms[0]), float(zooms[1]), float(zooms[2]), float(tr_seconds)]
    pixdim += [1.0] * (8 - len(pixdim))
    vox_offset = HEADER_SIZE + 4 + len(extensions)
    srow = np.asarray(affine, dtype=np.float64)[:3, :].reshape(-1)

    hdr = struct.pack(
        _HDR_FMT,
        HEADER_SIZE,  # sizeof_hdr
        b"",  # data_type (legacy)
        b"",  # db_name (legacy)
        0,  # extents
        0,  # session_error
        b"r",  # regular
        0,  # dim_info
        *dims,
        0.0,
        0.0,
        0.0,  # intent_p1..3
        0,  # intent_code
        _CODE_FOR_DTYPE[dtype],  # datatype
        dtype.itemsize * 8,  # bitpix
        0,  # slice_start
        *pixdim,
        float(vox_offset),
        0.0,  # scl_slope: zero means "no scaling"
        0.0,  # scl_inter
        0,  # slice_end
        0,  # slice_code
        2 | 8,  # xyzt_units: mm + sec
        0.0,
        0.0,
        0.0,
        0.0,  # cal_max, cal_min, slice_duration, toffset
        0,
        0,  # glmax, glmin
        b"",  # descrip
        b"",  # aux_file
        0,  # qform_code
        2,  # sform_code: aligned
        0.0,
        0.0,
        0.0,  # quatern_b,c,d
        0.0,
        0.0,
        0.0,  # qoffset_x,y,z
        *srow.tolist(),
        b"",  # intent_name
        MAGIC_SINGLE,
    )
    assert len(hdr) == HEADER_SIZE
    extender = b"\x01\x00\x00\x00" if extensions else b"\x00\x00\x00\x00"
    return hdr + extender + extensions


def write_nifti(vol: Volume4D | LabelVolume, path, extensions: bytes = b"") -> None:
    """Write a volume as a single-file NIfTI-1, gzip-compressed for .gz paths.

    Volumes are stored as float32 (float64 input keeps float64); label volumes
    use the smallest unsigned/int type that holds the label range.
    """
    path = Path(path)
    if isinstance(vol, LabelVolume):
        dtype = _pick_label_dtype(int(vol.labels.max(initial=0)))
        data = vol.labels.astype(dtype)
        tr = 1.0
    elif isinstance(vol, Volume4D):
        dtype = np.dtype(np.float64) if vol.data.dtype == np.float64 else np.dtype(np.float32)
        data = vol.data.astype(dtype)
        tr = vol.tr_seconds
    else:
        raise ValidationError(f"cannot write object of type {type(vol).__name__}")
    header = _build_header_bytes(data.shape, dtype, vol.affine, tr, extensions)
    with _open_for_write(path) as fh:
        fh.write(header)
        fh.write(data.tobytes(order="F"))
