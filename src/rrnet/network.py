"""The full network: tiny strided backbone, reasoning-augmented encoder,
attention-modulated decoder, prediction head, and the class-balanced loss."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import graph as G
from . import attention as A
from .attention import conv_shapes
from .init import init_params
from .tensor import (
    Tensor,
    clip,
    concat,
    conv2d,  # bench/tracer.py wraps conv2d by name in every module that binds it
    log,
    matmul,
    mean,
    relu,
    reshape,
    sigmoid,
    transpose,
    upsample2x,
)

__all__ = [
    "NetworkConfig",
    "PMA_CHOICES",
    "REASONING_CHOICES",
    "SaliencyPrediction",
    "param_shapes",
    "init_network_params",
    "encode",
    "decode_fuse",
    "predict",
    "bce_loss",
    "balanced_bce_loss",
    "PROB_EPS",
]

# probabilities entering a log are clamped to [PROB_EPS, 1 - PROB_EPS]
PROB_EPS = 1e-7

HIGH_STAGES = (3, 4, 5)
LOW_STAGES = (1, 2)

# the ablation grid: which PMA branches gate the decoder, and what runs after
# each high-level stage ("+" joins modules run in turn)
PMA_CHOICES = ("both", "left", "right", "none")
REASONING_CHOICES = ("srr+crr", "srr", "crr", "none", "nonlocal")


@dataclass
class NetworkConfig:
    stage_channels: tuple[int, ...] = (16, 32, 64, 64, 64)
    decoder_width: int = 24
    input_size: tuple[int, int] = (224, 224)
    pma: str = "both"
    reasoning: str = "srr+crr"

    def __post_init__(self):
        self.stage_channels = tuple(int(c) for c in self.stage_channels)
        self.input_size = tuple(int(s) for s in self.input_size)
        if len(self.stage_channels) != 5:
            raise ValueError(f"stage_channels needs 5 entries, got {self.stage_channels}")
        if any(c < 1 for c in self.stage_channels):
            raise ValueError(f"stage_channels must be positive, got {self.stage_channels}")
        if self.decoder_width < 1:
            raise ValueError(f"decoder_width must be positive, got {self.decoder_width}")
        if len(self.input_size) != 2:
            raise ValueError(f"input_size needs 2 entries, got {self.input_size}")
        if any(n < 32 or n % 32 for n in self.input_size):
            raise ValueError(f"input_size must be positive and divisible by 32, got {self.input_size}")
        if self.pma not in PMA_CHOICES:
            raise ValueError(f"pma must be {'|'.join(PMA_CHOICES)}, got '{self.pma}'")
        if self.reasoning not in REASONING_CHOICES:
            raise ValueError(f"reasoning must be {'|'.join(REASONING_CHOICES)}, got '{self.reasoning}'")

    def stage_spatial(self, s: int) -> tuple[int, int]:
        """Spatial size of stage s output (stride 2**s relative to the input)."""
        h, w = self.input_size
        return h // 2**s, w // 2**s

    # flat key=value serialization, shared by config files and checkpoints;
    # the keys are the dataclass fields, in declaration order

    def to_text(self) -> str:
        return "".join(f"{f.name}={_format_value(getattr(self, f.name))}\n" for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "NetworkConfig":
        return from_mapping(cls, parse_kv_text(text))


def from_mapping(cls, kv: dict[str, str]):
    """Build the dataclass cls from string values, each parsed by the type of
    its field's default; a single input_size value means a square."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    kwargs = {}
    for key, value in kv.items():
        kind = kinds.get(key)
        if kind is None:
            raise ValueError(f"unknown config key '{key}'")
        kwargs[key] = _parse_value(key, value, kind)
    return cls(**kwargs)


_EXPECTS = {bool: "a boolean", int: "an integer", float: "a number", tuple: "a comma list of integers"}


def _parse_value(key: str, value: str, kind: type):
    try:
        if kind is bool:
            v = value.strip().lower()
            if v in ("true", "1", "yes", "on"):
                return True
            if v in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        if kind is tuple:
            parts = tuple(int(x) for x in value.split(","))
            return parts * 2 if key == "input_size" and len(parts) == 1 else parts
        return kind(value)
    except ValueError:
        raise ValueError(f"config key '{key}' expects {_EXPECTS[kind]}, got '{value}'") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat key=value lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got '{raw.strip()}'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@dataclass
class SaliencyPrediction:
    """A saliency map in (0, 1) at the input resolution."""

    map: Tensor


def _prefixed(prefix: str, shapes: dict[str, tuple[int, ...]]) -> dict[str, tuple[int, ...]]:
    return {prefix + name: shape for name, shape in shapes.items()}


def _scope(params: dict[str, Tensor], prefix: str) -> dict[str, Tensor]:
    """The entries under prefix, named without it: one module's own slice."""
    n = len(prefix)
    return {name[n:]: t for name, t in params.items() if name.startswith(prefix)}


def _draw_table(cfg: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Every entry any variant of cfg's size and widths can read, in draw order.

    Reasoning and attention entries are listed whatever the pma and reasoning
    settings, so that all ablation variants draw an identical initialization
    for a given seed. Non-local entries come last, only with reasoning
    "nonlocal".
    """
    shapes: dict[str, tuple[int, ...]] = {}
    cin = 3
    for s, cout in enumerate(cfg.stage_channels, start=1):
        for i in range(3):
            shapes |= conv_shapes(3, cin if i == 0 else cout, cout, f"backbone.s{s}.c{i}.")
        cin = cout
    for s in HIGH_STAGES:
        h, w = cfg.stage_spatial(s)
        shapes |= _prefixed(f"rr.s{s}.spatial.", G.reasoning_shapes(cfg.stage_channels[s - 1]))
        shapes |= _prefixed(f"rr.s{s}.channel.", G.reasoning_shapes(h * w))
    for s in LOW_STAGES:
        shapes |= _prefixed(f"pma.s{s}.", A.pma_shapes(cfg.stage_channels[s - 1]))
    width = cfg.decoder_width
    for s in (5, 4, 3, 2):
        up_ch = cfg.stage_channels[4] if s == 5 else width
        shapes |= conv_shapes(3, up_ch + cfg.stage_channels[s - 2], width, f"decoder.s{s}.")
    shapes |= conv_shapes(3, width, width, "head.c0.") | conv_shapes(3, width, width, "head.c1.")
    shapes |= conv_shapes(1, width, 1, "head.c2.")
    if cfg.reasoning == "nonlocal":
        for s in HIGH_STAGES:
            shapes |= _prefixed(f"nonlocal.s{s}.", G.nonlocal_shapes(cfg.stage_channels[s - 1]))
    return shapes


# the pma.sN. sub-prefixes each PMA setting reads (attention.pma_shapes names)
_PMA_READS = {
    "both": ("left.", "right.", "att.", "fuse."),
    "left": ("left.", "fuse."),
    "right": ("right.", "att.", "fuse."),
    "none": (),
}
# the rr.sN. sub-prefix each relational reasoning module reads
_RR_READS = {"srr": "spatial.", "crr": "channel."}


def param_shapes(cfg: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter the configured variant reads: checkpoint name and
    shape, in draw order.

    This is the draw table restricted, by name prefix, to the modules that
    encode and predict run for cfg's pma and reasoning settings, so each
    variant holds, saves, loads and steps only its own parameters.
    """
    modules = cfg.reasoning.split("+")
    read = ["backbone.", "decoder.", "head."]
    read += [f"rr.s{s}.{_RR_READS[m]}" for s in HIGH_STAGES for m in modules if m in _RR_READS]
    read += [f"pma.s{s}.{b}" for s in LOW_STAGES for b in _PMA_READS[cfg.pma]]
    if "nonlocal" in modules:
        read.append("nonlocal.")
    return {name: shape for name, shape in _draw_table(cfg).items() if name.startswith(tuple(read))}


def init_network_params(cfg: NetworkConfig, seed, dtype=np.float32) -> dict[str, Tensor]:
    """A fresh {checkpoint name: trainable tensor} dict for param_shapes(cfg),
    drawn from seed (an int or a Generator) in the order of the whole draw
    table. The whole table is drawn and the entries the variant does not hold
    are dropped, so a kept entry has the same values in every variant."""
    drawn = init_params(_draw_table(cfg), seed, dtype)
    return {name: drawn[name] for name in param_shapes(cfg)}


def _conv(x: Tensor, params: dict[str, Tensor], prefix: str, stride: int = 1) -> Tensor:
    return conv2d(x, params[prefix + "w"], params[prefix + "b"], stride=stride)


def _upsample_fold() -> np.ndarray:
    """The 36 x 9 0/1 matrix taking a 3x3 kernel, flattened over (row, col),
    to the four 3x3 kernels, flattened over (a, b, row, col), that act on the
    source map at output phase (a, b) of a nearest 2x upsample."""
    # At output row 2i + a, kernel row d reads source row i + (a + d - 1) // 2:
    # rows i-1, i, i at phase 0 and rows i, i, i+1 at phase 1.
    reads = np.zeros((2, 3, 3))
    for a in range(2):
        for d in range(3):
            reads[a, (a + d - 1) // 2 + 1, d] = 1.0
    return np.einsum("ard,bse->abrsde", reads, reads).reshape(36, 9)


_UPSAMPLE_FOLD = _upsample_fold()
_UPSAMPLE_FOLD.setflags(write=False)  # shared by every head's Tensor wrapper


def _upsample_conv(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """conv2d(upsample2x(x), w, b) for a 3x3 kernel, without the 2H x 2W input.

    A 3x3 conv on a nearest 2x upsampled map is, at each of the four output
    phases, a 3x3 conv on the source map whose taps sum the kernel taps that
    read the same source pixel; the zero padding of the upsampled map falls on
    the zero padding of the source. So one conv at H x W with the four phase
    kernels stacked as 4*Cout output channels, then depth-to-space, gives the
    same map. The stacked kernel is built from w in every forward pass.
    """
    w, b = params[prefix + "w"], params[prefix + "b"]
    _, _, cin, cout = w.shape
    w4 = matmul(Tensor(_UPSAMPLE_FOLD, dtype=w.dtype), reshape(w, (9, cin * cout)))
    w4 = transpose(reshape(w4, (2, 2, 3, 3, cin, cout)), (2, 3, 4, 0, 1, 5))
    y = conv2d(x, reshape(w4, (3, 3, cin, 4 * cout)), concat([b] * 4, axis=0))
    h, wd = x.shape[:2]
    y = transpose(reshape(y, (h, wd, 2, 2, cout)), (0, 2, 1, 3, 4))
    return reshape(y, (2 * h, 2 * wd, cout))


def _check_image(image: Tensor) -> None:
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an HxWx3 image, got shape {image.shape}")
    h, w = image.shape[:2]
    if h % 32 or w % 32:
        raise ValueError(
            f"image size {h}x{w} is not divisible by 32; resize before running the network"
        )


def encode(image: Tensor, params: dict[str, Tensor], cfg: NetworkConfig) -> list[Tensor]:
    """Backbone with relational reasoning after each high-level stage.

    The reasoning output replaces the stage features and feeds the next
    stage. Returns [X1, X2, F3, F4, F5]; stage s has stride 2**s. With
    reasoning "none" this is the plain feature pyramid.
    """
    _check_image(image)
    modules = cfg.reasoning.split("+")
    feats = []
    h = image
    for s in LOW_STAGES + HIGH_STAGES:
        h = relu(_conv(h, params, f"backbone.s{s}.c0.", stride=2))
        h = relu(_conv(h, params, f"backbone.s{s}.c1."))
        h = relu(_conv(h, params, f"backbone.s{s}.c2."))
        if s in HIGH_STAGES:
            if "nonlocal" in modules:
                h = G.non_local_block(h, _scope(params, f"nonlocal.s{s}."))
            if "srr" in modules:
                h = G.srr(h, _scope(params, f"rr.s{s}.spatial."))
            if "crr" in modules:
                h = G.crr(h, _scope(params, f"rr.s{s}.channel."))
        feats.append(h)
    return feats


def decode_fuse(
    f_d: Tensor, f_e: Tensor, a_f: Tensor | None, conv: dict[str, Tensor]
) -> Tensor:
    """One decoder fusion step.

    Upsamples the deep features, optionally gates them with (A_f + 1)
    (so A_f == 0 reproduces the ungated path bit for bit), concatenates the
    encoder features and mixes with a 3x3 convolution of weight conv["w"]
    and bias conv["b"].
    """
    up = upsample2x(f_d)
    if up.shape[:2] != f_e.shape[:2]:
        raise ValueError(
            f"decode_fuse: encoder features {f_e.shape[:2]} must be exactly 2x the "
            f"decoder features {f_d.shape[:2]}"
        )
    if a_f is not None:
        if a_f.shape != f_e.shape[:2]:
            raise ValueError(
                f"decode_fuse: attention map {a_f.shape} does not match encoder size {f_e.shape[:2]}"
            )
        gate = reshape(a_f, (*a_f.shape, 1)) + 1.0
        up = up * gate
    return conv2d(concat([up, f_e], axis=2), conv["w"], conv["b"])


def predict(image: Tensor, params: dict[str, Tensor], cfg: NetworkConfig) -> SaliencyPrediction:
    """Full forward pass producing a saliency map at the input resolution."""
    feats = encode(image, params, cfg)
    f_d = feats[4]  # decoder seed: the deepest encoder output
    for s in (5, 4, 3, 2):
        f_e = feats[s - 2]
        a_f = None
        if s in (2, 3) and cfg.pma != "none":
            a_f = A.pma(f_e, _scope(params, f"pma.s{s - 1}."), branch=cfg.pma)
        f_d = decode_fuse(f_d, f_e, a_f, _scope(params, f"decoder.s{s}."))
    # the head: a 3x3 conv at stage-1 resolution, a 2x upsample and a 3x3
    # conv, then a 1x1 conv to the map at input resolution; the upsample and
    # the second 3x3 conv run folded at stage-1 resolution (_upsample_conv)
    h = relu(_conv(f_d, params, "head.c0."))
    h = relu(_upsample_conv(h, params, "head.c1."))
    m = sigmoid(_conv(h, params, "head.c2."))
    return SaliencyPrediction(map=reshape(m, m.shape[:2]))


# -- loss ---------------------------------------------------------------------


def _check_label(s: Tensor, label: np.ndarray) -> np.ndarray:
    label = np.asarray(label)
    if label.shape != s.shape:
        raise ValueError(f"saliency map {s.shape} and label {label.shape} differ in shape")
    if not ((label == 0.0) | (label == 1.0)).all():
        raise ValueError(f"label must be binary 0/1, found values {np.unique(label)[:8]}")
    return label.astype(s.dtype)


def _weighted_bce(s: Tensor, lab: np.ndarray, p: float, q: float) -> Tensor:
    """Mean over pixels of -(p * l * log(s) + q * (1 - l) * log(1 - s))."""
    sc = clip(s, PROB_EPS, 1.0 - PROB_EPS)
    l_t = Tensor(lab)
    term = (l_t * log(sc)) * p + ((1.0 - l_t) * log(1.0 - sc)) * q
    return mean(term) * -1.0


def bce_loss(s: Tensor, label: np.ndarray) -> Tensor:
    """Unweighted binary cross-entropy, mean over pixels."""
    return _weighted_bce(s, _check_label(s, label), 1.0, 1.0)


def balanced_bce_loss(s: Tensor, label: np.ndarray) -> Tensor:
    """Class-balanced binary cross-entropy.

    The positive term is weighted by the background share p = (B - Bm)/B and
    the negative term by the foreground share q = Bm/B, computed per image.
    Images with no foreground fall back to the unweighted loss (the balanced
    form is identically zero there).
    """
    lab = _check_label(s, label)
    b = lab.size
    b_m = float(lab.sum())
    if b_m == 0:
        return _weighted_bce(s, lab, 1.0, 1.0)
    return _weighted_bce(s, lab, (b - b_m) / b, b_m / b)
