"""The full network: tiny strided backbone, reasoning-augmented encoder,
attention-modulated decoder, prediction head, and the class-balanced loss."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from . import graph as G
from . import attention as A
from .attention import ConvParams, init_conv_params
from .init import as_rng
from .tensor import (
    Tensor,
    clip,
    concat,
    conv2d,
    log,
    mean,
    relu,
    reshape,
    sigmoid,
    upsample2x,
)

__all__ = [
    "NetworkConfig",
    "NetworkParams",
    "SaliencyPrediction",
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


@dataclass
class NetworkConfig:
    stage_channels: tuple[int, ...] = (16, 32, 64, 64, 64)
    decoder_width: int = 24
    input_size: tuple[int, int] = (224, 224)
    use_pma: bool = True
    use_srr: bool = True
    use_crr: bool = True
    use_nonlocal: bool = False
    pma_branch: str = "both"

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
        if self.use_nonlocal and (self.use_srr or self.use_crr):
            raise ValueError("use_nonlocal excludes use_srr/use_crr")
        if self.pma_branch not in ("both", "left", "right"):
            raise ValueError(f"pma_branch must be both|left|right, got '{self.pma_branch}'")

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


@dataclass
class StageParams:
    convs: list[ConvParams]

    def named_parameters(self, prefix: str = ""):
        for i, c in enumerate(self.convs):
            yield from c.named_parameters(f"{prefix}c{i}.")


@dataclass
class NetworkParams:
    """All trainable tensors, iterable in a fixed order by name."""

    stages: list[StageParams] = field(default_factory=list)
    rr_spatial: dict[int, G.ReasoningParams] = field(default_factory=dict)
    rr_channel: dict[int, G.ReasoningParams] = field(default_factory=dict)
    pma: dict[int, A.PmaParams] = field(default_factory=dict)
    decoder: dict[int, ConvParams] = field(default_factory=dict)
    head: list[ConvParams] = field(default_factory=list)
    nonlocal_: dict[int, G.NonLocalParams] = field(default_factory=dict)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for s, stage in enumerate(self.stages, start=1):
            yield from stage.named_parameters(f"backbone.s{s}.")
        for s in sorted(self.rr_spatial):
            yield from self.rr_spatial[s].named_parameters(f"rr.s{s}.spatial.")
        for s in sorted(self.rr_channel):
            yield from self.rr_channel[s].named_parameters(f"rr.s{s}.channel.")
        for s in sorted(self.pma):
            yield from self.pma[s].named_parameters(f"pma.s{s}.")
        for s in sorted(self.decoder):
            yield from self.decoder[s].named_parameters(f"decoder.s{s}.")
        for i, c in enumerate(self.head):
            yield from c.named_parameters(f"head.c{i}.")
        for s in sorted(self.nonlocal_):
            yield from self.nonlocal_[s].named_parameters(f"nonlocal.s{s}.")


def init_network_params(cfg: NetworkConfig, seed, dtype=np.float32) -> NetworkParams:
    """Create every parameter tensor the architecture can use.

    Reasoning and attention parameters are created regardless of the ablation
    toggles so that all ablation variants share an identical backbone
    initialization for a given seed; disabled modules simply stay unused.
    Non-local parameters are appended last and only when enabled.
    """
    rng = as_rng(seed)
    params = NetworkParams()
    cin = 3
    for s, cout in enumerate(cfg.stage_channels, start=1):
        params.stages.append(
            StageParams(
                convs=[
                    init_conv_params(rng, 3, cin, cout, dtype),
                    init_conv_params(rng, 3, cout, cout, dtype),
                    init_conv_params(rng, 3, cout, cout, dtype),
                ]
            )
        )
        cin = cout
    for s in HIGH_STAGES:
        c = cfg.stage_channels[s - 1]
        h, w = cfg.stage_spatial(s)
        params.rr_spatial[s] = G.init_reasoning_params(c, rng, dtype=dtype)
        params.rr_channel[s] = G.init_reasoning_params(h * w, rng, dtype=dtype)
    for s in LOW_STAGES:
        params.pma[s] = A.init_pma_params(cfg.stage_channels[s - 1], rng, dtype=dtype)
    width = cfg.decoder_width
    for s in (5, 4, 3, 2):
        up_ch = cfg.stage_channels[4] if s == 5 else width
        params.decoder[s] = init_conv_params(rng, 3, up_ch + cfg.stage_channels[s - 2], width, dtype)
    params.head = [
        init_conv_params(rng, 3, width, width, dtype),
        init_conv_params(rng, 3, width, width, dtype),
        init_conv_params(rng, 1, width, 1, dtype),
    ]
    if cfg.use_nonlocal:
        for s in HIGH_STAGES:
            params.nonlocal_[s] = G.init_nonlocal_params(cfg.stage_channels[s - 1], rng, dtype)
    return params


def _stage_forward(x: Tensor, stage: StageParams) -> Tensor:
    h = relu(conv2d(x, stage.convs[0].w, stage.convs[0].b, stride=2))
    h = relu(conv2d(h, stage.convs[1].w, stage.convs[1].b))
    h = relu(conv2d(h, stage.convs[2].w, stage.convs[2].b))
    return h


def _check_image(image: Tensor) -> None:
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an HxWx3 image, got shape {image.shape}")
    h, w = image.shape[:2]
    if h % 32 or w % 32:
        raise ValueError(
            f"image size {h}x{w} is not divisible by 32; resize before running the network"
        )


def encode(image: Tensor, params: NetworkParams, cfg: NetworkConfig) -> list[Tensor]:
    """Backbone with relational reasoning after each high-level stage.

    The reasoning output replaces the stage features and feeds the next
    stage. Returns [X1, X2, F3, F4, F5]; stage s has stride 2**s. With the
    SRR, CRR and non-local toggles off this is the plain feature pyramid.
    """
    _check_image(image)
    feats = []
    h = image
    for s, stage in enumerate(params.stages, start=1):
        h = _stage_forward(h, stage)
        if s in HIGH_STAGES:
            if cfg.use_nonlocal:
                h = G.non_local_block(h, params.nonlocal_[s])
            else:
                if cfg.use_srr:
                    h = G.srr(h, params.rr_spatial[s])
                if cfg.use_crr:
                    h = G.crr(h, params.rr_channel[s])
        feats.append(h)
    return feats


def decode_fuse(
    f_d: Tensor, f_e: Tensor, a_f: Tensor | None, conv: ConvParams
) -> Tensor:
    """One decoder fusion step.

    Upsamples the deep features, optionally gates them with (A_f + 1)
    (so A_f == 0 reproduces the ungated path bit for bit), concatenates the
    encoder features and mixes with a 3x3 convolution.
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
    return conv2d(concat([up, f_e], axis=2), conv.w, conv.b)


def predict(image: Tensor, params: NetworkParams, cfg: NetworkConfig) -> SaliencyPrediction:
    """Full forward pass producing a saliency map at the input resolution."""
    feats = encode(image, params, cfg)
    f_d = feats[4]  # decoder seed: the deepest encoder output
    for s in (5, 4, 3, 2):
        f_e = feats[s - 2]
        a_f = None
        if s in (2, 3) and cfg.use_pma:
            a_f = A.pma(f_e, params.pma[s - 1], branch=cfg.pma_branch)
        f_d = decode_fuse(f_d, f_e, a_f, params.decoder[s])
    # the first head conv runs at stage-1 resolution; the remaining two run
    # after the 2x upsample so the map is refined at input resolution
    # (a block-constant map cannot reach the acceptance F-measure targets)
    h = relu(conv2d(f_d, params.head[0].w, params.head[0].b))
    h = upsample2x(h)
    h = relu(conv2d(h, params.head[1].w, params.head[1].b))
    m = sigmoid(conv2d(h, params.head[2].w, params.head[2].b))
    return SaliencyPrediction(map=reshape(m, m.shape[:2]))


# -- loss ---------------------------------------------------------------------


def _check_label(s: Tensor, label: np.ndarray) -> np.ndarray:
    label = np.asarray(label)
    if label.shape != s.shape:
        raise ValueError(f"saliency map {s.shape} and label {label.shape} differ in shape")
    values = np.unique(label)
    if not np.isin(values, (0.0, 1.0)).all():
        raise ValueError(f"label must be binary 0/1, found values {values[:8]}")
    return label.astype(s.dtype)


def bce_loss(s: Tensor, label: np.ndarray) -> Tensor:
    """Unweighted binary cross-entropy, mean over pixels."""
    lab = _check_label(s, label)
    sc = clip(s, PROB_EPS, 1.0 - PROB_EPS)
    l_t = Tensor(lab)
    term = l_t * log(sc) + (1.0 - l_t) * log(1.0 - sc)
    return mean(term) * -1.0


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
        return bce_loss(s, label)
    p = (b - b_m) / b
    q = b_m / b
    sc = clip(s, PROB_EPS, 1.0 - PROB_EPS)
    l_t = Tensor(lab)
    term = (l_t * log(sc)) * p + ((1.0 - l_t) * log(1.0 - sc)) * q
    return mean(term) * -1.0
