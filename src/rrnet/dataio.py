"""Image/mask I/O, dihedral augmentation, resizing, the synthetic shapes
dataset, and checkpoint serialization.

Images are binary PPM (P6, 8-bit); masks and saliency maps are binary PGM
(P5, 8-bit). Both formats are byte-auditable, which the round-trip tests
rely on. Every header is parsed by one regex match, `_PNM_HEADER`.
`read_pgm_bytes` gives a PGM's payload as it is stored, which
`metrics.evaluate_pair` scores directly; `read_pgm` and `read_mask` convert
it to float32 for the network and for library callers. A mask byte >= 128
is foreground (`_foreground`), whether read by `read_mask` or by `rrnet
eval`.
"""

from __future__ import annotations

import math
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import NetworkConfig
from .tensor import NumericalError

__all__ = [
    "Sample",
    "DataFormatError",
    "CheckpointError",
    "read_ppm",
    "write_ppm",
    "read_pgm",
    "read_pgm_bytes",
    "write_pgm",
    "read_mask",
    "augment7",
    "dihedral_variant",
    "AUGMENT_NAMES",
    "resize_bilinear",
    "resize_nearest",
    "resize_sample",
    "ShapeSpec",
    "sample_shape",
    "synth_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "write_manifest",
    "load_manifest_samples",
]

CHECKPOINT_MAGIC = b"RRNETCK1"
CHECKPOINT_VERSION = 4


class DataFormatError(ValueError):
    """A file could not be parsed; carries the path and byte offset."""

    def __init__(self, message: str, path=None, offset: int | None = None):
        loc = ""
        if path is not None:
            loc += f" in {path}"
        if offset is not None:
            loc += f" at byte {offset}"
        super().__init__(message + loc)
        self.path = path
        self.offset = offset


class CheckpointError(ValueError):
    pass


@dataclass
class Sample:
    """An RGB image in [0, 1] plus a binary mask at the same resolution."""

    image: np.ndarray  # H x W x 3 float32
    mask: np.ndarray  # H x W float32 in {0, 1}
    id: str = ""


# -- netpbm ---------------------------------------------------------------------


# the three header tokens after the magic, width, height and maxval, each
# after its run of whitespace and '#' comments; a token is empty only where
# the data ends
_PNM_HEADER = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)" * 3)


def _parse_pnm_header(data: bytes, magic: bytes, path) -> tuple[int, int, int]:
    """Returns (width, height, payload_offset); maxval must be 255.

    One match of `_PNM_HEADER` splits the header into its three tokens, and
    one whitespace byte after maxval ends it. A malformed header is reported
    at the byte offset of the first token that fails."""
    if data[:2] != magic:
        raise DataFormatError(
            f"expected {magic.decode()} file, found {data[:2]!r}", path, 0
        )
    header = _PNM_HEADER.match(data, 2)
    fields: list[int] = []
    for i in (1, 2, 3):
        if not header[i]:
            raise DataFormatError("truncated header", path, header.start(i))
        try:
            fields.append(int(header[i]))
        except ValueError:
            raise DataFormatError(f"bad header token {header[i]!r}", path, header.start(i)) from None
    pos = header.end()
    if pos >= len(data):
        raise DataFormatError("missing whitespace after maxval", path, pos)
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise DataFormatError(f"bad dimensions {width}x{height}", path, 2)
    if maxval != 255:
        raise DataFormatError(f"unsupported maxval {maxval} (only 255)", path, 2)
    return width, height, pos + 1  # single whitespace byte separates header from payload


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """The uint8 payload of a P6 (channels 3) or P5 (channels 1) file, as
    H x W x 3 or H x W."""
    data = Path(path).read_bytes()
    width, height, pos = _parse_pnm_header(data, magic, path)
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise DataFormatError(
            f"payload truncated: expected {need} bytes, found {len(payload)}", path, pos
        )
    shape = (height, width, channels) if channels > 1 else (height, width)
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def _write_pnm(path, magic: bytes, values: np.ndarray) -> None:
    """Write values in [0, 1] as 8-bit netpbm, quantized with round(v * 255)."""
    h, w = values.shape[:2]
    payload = np.clip(np.rint(np.asarray(values, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)
    Path(path).write_bytes(magic + b"\n%d %d\n255\n" % (w, h) + payload.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a P6 file into an H x W x 3 float32 array scaled to [0, 1]."""
    return _read_pnm(path, b"P6", 3).astype(np.float32) / 255.0


def write_ppm(path, image: np.ndarray) -> None:
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"write_ppm needs an HxWx3 array, got {image.shape}")
    _write_pnm(path, b"P6", image)


def read_pgm_bytes(path) -> np.ndarray:
    """Read a P5 file's payload as an H x W uint8 array, one byte per pixel."""
    return _read_pnm(path, b"P5", 1)


def read_pgm(path) -> np.ndarray:
    """Read a P5 file into an H x W float32 array scaled to [0, 1]."""
    return read_pgm_bytes(path).astype(np.float32) / 255.0


def write_pgm(path, values: np.ndarray) -> None:
    """Write a map in [0, 1] as 8-bit P5, quantized with round(v * 255)."""
    if values.ndim != 2:
        raise ValueError(f"write_pgm needs an HxW array, got {values.shape}")
    _write_pnm(path, b"P5", values)


def _foreground(codes: np.ndarray) -> np.ndarray:
    """The foreground of a mask's stored bytes: a byte >= 128."""
    return codes >= 128


def read_mask(path) -> np.ndarray:
    """Read a P5 ground-truth mask as 0/1 float32; see `_foreground`."""
    return _foreground(read_pgm_bytes(path)).astype(np.float32)


# -- augmentation -----------------------------------------------------------------

AUGMENT_NAMES = (
    "orig",
    "rot90",
    "rot180",
    "rot270",
    "flip",
    "flip_rot90",
    "flip_rot180",
    "flip_rot270",
)


def _dihedral(arr: np.ndarray, name: str) -> np.ndarray:
    if name.startswith("flip"):
        arr = np.flip(arr, axis=1)
        name = name[5:] or "orig"
    if name == "orig":
        return np.ascontiguousarray(arr)
    turns = {"rot90": 1, "rot180": 2, "rot270": 3}[name]
    return np.ascontiguousarray(np.rot90(arr, turns))


def dihedral_variant(sample: Sample, name: str) -> Sample:
    """The sample under the symmetry of the square named in `AUGMENT_NAMES`,
    as C-contiguous arrays; its id gains `_<name>`, except for "orig".

    Rotations by 90/270 swap H and W; a later resize normalizes that for
    training.
    """
    return Sample(
        image=_dihedral(sample.image, name),
        mask=_dihedral(sample.mask, name),
        id=f"{sample.id}_{name}" if name != "orig" else sample.id,
    )


def augment7(sample: Sample) -> list[Sample]:
    """The original plus the 7 non-identity symmetries of the square, each a
    `dihedral_variant`, in `AUGMENT_NAMES` order."""
    return [dihedral_variant(sample, name) for name in AUGMENT_NAMES]


# -- resizing --------------------------------------------------------------------


def _source_coords(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # half-pixel-center mapping; same-size resize is the identity
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(src).astype(np.int64)
    frac = src - lo
    lo = np.clip(lo, 0, n_in - 1)
    hi = np.clip(lo + 1, 0, n_in - 1)
    return lo, hi, frac


def resize_bilinear(arr: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Bilinear resize of an HxW or HxWxC array to (H_out, W_out)."""
    h_out, w_out = int(size[0]), int(size[1])
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"target size must be positive, got {size}")
    h_in, w_in = arr.shape[:2]
    if (h_in, w_in) == (h_out, w_out):
        return np.array(arr, copy=True)
    r_lo, r_hi, r_f = _source_coords(h_out, h_in)
    c_lo, c_hi, c_f = _source_coords(w_out, w_in)
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 2:
        a = a[:, :, None]
        squeeze = True
    else:
        squeeze = False
    r_f = r_f[:, None, None]
    c_f = c_f[None, :, None]
    top = a[r_lo][:, c_lo] * (1 - c_f) + a[r_lo][:, c_hi] * c_f
    bot = a[r_hi][:, c_lo] * (1 - c_f) + a[r_hi][:, c_hi] * c_f
    out = top * (1 - r_f) + bot * r_f
    out = out.astype(arr.dtype if np.issubdtype(arr.dtype, np.floating) else np.float32)
    return out[:, :, 0] if squeeze else out


def resize_nearest(arr: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize; preserves binary masks exactly."""
    h_out, w_out = int(size[0]), int(size[1])
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"target size must be positive, got {size}")
    h_in, w_in = arr.shape[:2]
    if (h_in, w_in) == (h_out, w_out):
        return np.array(arr, copy=True)
    rows = np.minimum(
        ((np.arange(h_out) + 0.5) * (h_in / h_out)).astype(np.int64), h_in - 1
    )
    cols = np.minimum(
        ((np.arange(w_out) + 0.5) * (w_in / w_out)).astype(np.int64), w_in - 1
    )
    return np.ascontiguousarray(arr[rows][:, cols])


def resize_sample(sample: Sample, size: tuple[int, int]) -> Sample:
    """Bilinear for the image, nearest for the mask (keeps it binary)."""
    return Sample(
        image=resize_bilinear(sample.image, size),
        mask=resize_nearest(sample.mask, size),
        id=sample.id,
    )


# -- synthetic shapes dataset -------------------------------------------------------


@dataclass
class ShapeSpec:
    """A salient primitive: axis-aligned ellipse or rectangle, or a rotated bar."""

    kind: str  # ellipse | rect | bar
    cx: float
    cy: float
    a: float  # semi-axis / half-width along x (bar: half-length)
    b: float  # semi-axis / half-height (bar: half-thickness)
    angle: float = 0.0

    def rasterize(self, size: int) -> np.ndarray:
        """Boolean mask over pixel centers."""
        ys, xs = np.mgrid[0:size, 0:size]
        x = xs + 0.5 - self.cx
        y = ys + 0.5 - self.cy
        if self.angle:
            ca, sa = math.cos(self.angle), math.sin(self.angle)
            x, y = ca * x + sa * y, -sa * x + ca * y
        if self.kind == "ellipse":
            return (x / self.a) ** 2 + (y / self.b) ** 2 <= 1.0
        return (np.abs(x) <= self.a) & (np.abs(y) <= self.b)


def sample_shape(rng: np.random.Generator, size: int) -> ShapeSpec:
    # shape extents keep the area-to-perimeter ratio high enough that masks
    # survive the 2x resolution loss of the prediction head
    kind = ("ellipse", "rect", "bar")[rng.integers(0, 3)]
    if kind == "ellipse":
        a = rng.uniform(0.12, 0.24) * size
        b = rng.uniform(0.12, 0.24) * size
        angle = 0.0
    elif kind == "rect":
        a = rng.uniform(0.11, 0.2) * size
        b = rng.uniform(0.11, 0.2) * size
        angle = 0.0
    else:  # elongated bar (rivers, ships)
        a = rng.uniform(0.24, 0.42) * size
        b = rng.uniform(0.055, 0.09) * size
        angle = rng.uniform(0.0, math.pi)
    margin = 0.18 * size
    cx = rng.uniform(margin, size - margin)
    cy = rng.uniform(margin, size - margin)
    return ShapeSpec(kind=kind, cx=cx, cy=cy, a=max(a, 1.0), b=max(b, 1.0), angle=angle)


def _smooth_noise(rng: np.random.Generator, size: int, channels: int, cells: int) -> np.ndarray:
    coarse = rng.normal(0.0, 1.0, size=(cells, cells, channels))
    return resize_bilinear(coarse, (size, size))


def synth_dataset(n: int, seed: int, size: int = 64) -> list[Sample]:
    """Deterministic samples: 1-3 non-overlapping salient shapes over a
    low-contrast textured background.

    Shape colors keep a clear margin from the background color, so the
    saliency rule is learnable at desk scale; masks always satisfy
    1 <= foreground <= half the pixels.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        base = rng.uniform(0.3, 0.7, size=3)
        image = np.clip(
            base[None, None, :] + 0.05 * _smooth_noise(rng, size, 3, max(size // 8, 2)),
            0.0,
            1.0,
        ).astype(np.float32)
        mask = np.zeros((size, size), dtype=bool)
        want = int(rng.integers(1, 4))
        placed = 0
        attempts = 0
        while placed < want and attempts < 40:
            attempts += 1
            spec = sample_shape(rng, size)
            raster = spec.rasterize(size)
            if not raster.any():
                continue
            if (raster & mask).any():
                continue
            if mask.sum() + raster.sum() > 0.5 * size * size:
                continue
            # a contrasting fill color: push each channel away from the base
            direction = np.where(base < 0.5, 1.0, -1.0) * rng.uniform(0.3, 0.55, size=3)
            color = np.clip(base + direction, 0.0, 1.0)
            image[raster] = (
                color[None, :] + rng.normal(0.0, 0.015, size=(int(raster.sum()), 3))
            ).clip(0.0, 1.0)
            mask |= raster
            placed += 1
        if placed == 0:
            # guaranteed fallback: a small centered rectangle
            lo, hi = size // 2 - max(size // 8, 1), size // 2 + max(size // 8, 1)
            direction = np.where(base < 0.5, 1.0, -1.0) * 0.45
            image[lo:hi, lo:hi] = np.clip(base + direction, 0.0, 1.0)
            mask[lo:hi, lo:hi] = True
        samples.append(
            Sample(image=image.astype(np.float32), mask=mask.astype(np.float32), id=f"synth{i:04d}")
        )
    return samples


# -- checkpoints ----------------------------------------------------------------


def save_checkpoint(params: dict, cfg: NetworkConfig, path) -> None:
    """Binary checkpoint: magic, version, config snapshot, named f32 entries.

    params maps each entry name to a Tensor or an array, written in the
    dict's order. Each entry carries a CRC32 so payload corruption is
    detected on load. An entry with NaN or infinite values, or values beyond
    float32 range, raises NumericalError, and nothing is written, since
    load_checkpoint would refuse the file.
    """
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    cfg_blob = cfg.to_text().encode("utf-8")
    out += struct.pack("<I", len(cfg_blob))
    out += cfg_blob
    out += struct.pack("<I", len(params))
    for name, tensor in params.items():
        with np.errstate(over="ignore"):  # an overflow to inf is refused just below
            data = np.ascontiguousarray(
                tensor.data if hasattr(tensor, "data") else tensor, dtype="<f4"
            )
        if not np.isfinite(data).all():
            raise NumericalError(
                f"parameter '{name}' holds NaN, infinite or beyond float32 range values; "
                f"{path} not written"
            )
        name_b = name.encode("utf-8")
        out += struct.pack("<H", len(name_b))
        out += name_b
        out += struct.pack("<B", data.ndim)
        for d in data.shape:
            out += struct.pack("<I", d)
        payload = data.tobytes()
        out += payload
        out += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"checkpoint truncated while reading {what} at byte {self.pos} in {self.path}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what):
        return struct.unpack("<B", self.take(1, what))[0]

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], NetworkConfig]:
    """Load a checkpoint into an ordered name -> float32 array mapping of finite values."""
    r = _Reader(Path(path).read_bytes(), path)
    magic = r.take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} in {path}; this build reads version "
            f"{CHECKPOINT_VERSION} - re-save the model with a matching build"
        )
    cfg_len = r.u32("config length")
    cfg_blob = r.take(cfg_len, "config")
    try:
        cfg = NetworkConfig.from_text(cfg_blob.decode("utf-8"))
    except ValueError as e:  # includes UnicodeDecodeError
        raise CheckpointError(f"bad config in {path}: {e}") from None
    count = r.u32("entry count")
    entries: dict[str, np.ndarray] = {}
    # names are quoted with repr, so a corrupt one cannot break a message's line
    for _ in range(count):
        name_len = r.u16("name length")
        try:
            name = r.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"bad entry name in {path}: {e}") from None
        if name in entries:
            raise CheckpointError(f"duplicate entry {name!r} in {path}")
        ndim = r.u8("rank")
        shape = tuple(r.u32("dimension") for _ in range(ndim))
        n_values = math.prod(shape)  # exact: a corrupt shape must not wrap around
        payload = r.take(4 * n_values, f"payload of {name!r}")
        crc = r.u32("checksum")
        if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
            raise CheckpointError(f"checksum mismatch for entry {name!r} in {path}")
        try:
            values = np.frombuffer(payload, dtype="<f4").reshape(shape)
        except ValueError as e:  # more dimensions than numpy supports
            raise CheckpointError(f"entry {name!r} in {path}: {e}") from None
        if not np.isfinite(values).all():
            raise CheckpointError(f"entry {name!r} in {path} holds NaN or infinite values")
        entries[name] = values.astype(np.float32)  # the one copy, in native byte order
    return entries, cfg


# -- manifests --------------------------------------------------------------------


def write_manifest(path, pairs: list[tuple[str, str]]) -> None:
    lines = [f"{img}\t{msk}" for img, msk in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def load_manifest_samples(path) -> list[Sample]:
    """Read every image<TAB>mask line, blank lines skipped; relative paths are
    taken from the manifest's directory. A malformed line, or an image and
    mask of different sizes, is a data error that names its line. A manifest
    with no image lines is a data error too."""
    base = Path(path).parent
    samples = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(
                f"manifest line {ln} must be 'image<TAB>mask', got {raw!r}", path
            )
        img_path, mask_path = parts
        image, mask = read_ppm(base / img_path), read_mask(base / mask_path)
        if mask.shape != image.shape[:2]:
            raise DataFormatError(
                f"manifest line {ln}: image {image.shape[:2]} and mask {mask.shape} "
                "have different sizes",
                path,
            )
        samples.append(Sample(image=image, mask=mask, id=Path(img_path).stem))
    if not samples:
        raise DataFormatError("manifest lists no image<TAB>mask lines", path)
    return samples
