"""Model assembly: shared encoder, per-task attention, per-task classifiers.

The same code path serves the joint two-task network and the single-task
baselines; a baseline is just the network with one head and one loss term.
Checkpoints are a bit-exact binary format embedding the config, the label
vocabularies, and the token vocabulary so a saved model is self-contained.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import attnpool, encoder
from .attnpool import task_attention
from .encoder import EncoderConfig, encode_batch
from .preprocess import RESERVED_TOKENS, TokenSequence, Vocabulary
from .tensor import (
    Tensor,
    add,
    concat_last,
    cross_entropy_from_logits,
    init_parameters,
    matmul,
    scale,
    tanh,
)

MODE_MTL = "mtl"
MODE_COUNTRY = "country"
MODE_PROVINCE = "province"
MODES = (MODE_MTL, MODE_COUNTRY, MODE_PROVINCE)

CHECKPOINT_MAGIC = b"MTLD"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is corrupt or inconsistent with its config."""


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    n_countries: int = 2
    n_provinces: int = 2
    hidden_size: int = 0  # 0 resolves to encoder.d_model
    mode: str = MODE_MTL
    loss_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.hidden_size == 0:
            self.hidden_size = self.encoder.d_model
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be positive")
        if self.has_country and self.n_countries < 2:
            raise ValueError("n_countries must be >= 2 when the country head exists")
        if self.has_province and self.n_provinces < 2:
            raise ValueError("n_provinces must be >= 2 when the province head exists")
        w_c, w_p = self.loss_weights
        if w_c < 0 or w_p < 0:
            raise ValueError("loss_weights must be nonnegative")
        self.loss_weights = (float(w_c), float(w_p))

    @property
    def has_country(self) -> bool:
        return self.mode in (MODE_MTL, MODE_COUNTRY)

    @property
    def has_province(self) -> bool:
        return self.mode in (MODE_MTL, MODE_PROVINCE)

    def tasks(self) -> list[tuple[str, int]]:
        out = []
        if self.has_country:
            out.append(("country", self.n_countries))
        if self.has_province:
            out.append(("province", self.n_provinces))
        return out


@dataclass
class LossReport:
    """Per-task and combined losses as 64-bit floats."""

    country: float
    province: float
    total: float


def param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Named shapes and init kinds for every parameter of the model.

    Initialization is name-seeded, so parameters shared between modes
    start bitwise equal.
    """
    d = config.encoder.d_model
    specs = encoder.param_specs(config.encoder)
    for task, classes in config.tasks():
        specs.extend(attnpool.param_specs(d, config.encoder.l_max, task))
        specs.append((f"{task}_cls.w1", (2 * d, config.hidden_size), "normal"))
        specs.append((f"{task}_cls.b1", (config.hidden_size,), "zeros"))
        specs.append((f"{task}_cls.w2", (config.hidden_size, classes), "normal"))
        specs.append((f"{task}_cls.b2", (classes,), "zeros"))
    return specs


class MtlModel:
    """Encoder + per-task attention pooling + per-task two-layer classifiers."""

    def __init__(
        self,
        config: ModelConfig,
        global_seed: int = 0,
        dtype=np.float32,
        params: dict[str, Tensor] | None = None,
    ):
        self.config = config
        self.global_seed = global_seed
        self.params = params if params is not None else init_parameters(param_specs(config), global_seed, dtype)

    def forward(
        self,
        seqs: Sequence[TokenSequence],
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor | None, Tensor | None]:
        """Return (country logits, province logits); absent heads yield None."""
        enc = encode_batch(seqs, self.params, self.config.encoder, train_mode, rng)
        logits: dict[str, Tensor] = {}
        for task, _ in self.config.tasks():
            att = task_attention(
                enc.h, enc.mask, self.params[f"{task}_attn.w_a"], self.params[f"{task}_attn.w_alpha"]
            )
            z = concat_last(enc.pooled, att.v)
            hidden = tanh(add(matmul(z, self.params[f"{task}_cls.w1"]), self.params[f"{task}_cls.b1"]))
            logits[task] = add(
                matmul(hidden, self.params[f"{task}_cls.w2"]), self.params[f"{task}_cls.b2"]
            )
        return logits.get("country"), logits.get("province")


def compute_loss(
    logits_country: Tensor | None,
    logits_province: Tensor | None,
    labels_country: np.ndarray | None,
    labels_province: np.ndarray | None,
    config: ModelConfig,
) -> tuple[Tensor, LossReport]:
    """Weighted sum of per-task mean cross-entropies.

    Returns the differentiable total plus a float report; a missing head
    contributes exactly zero to both.
    """
    w_c, w_p = config.loss_weights
    total: Tensor | None = None
    loss_c = 0.0
    loss_p = 0.0
    if config.has_country:
        if logits_country is None or labels_country is None:
            raise ValueError("country head present but logits or labels missing")
        ce = cross_entropy_from_logits(logits_country, labels_country)
        loss_c = ce.item()
        total = scale(ce, w_c)
    if config.has_province:
        if logits_province is None or labels_province is None:
            raise ValueError("province head present but logits or labels missing")
        ce = cross_entropy_from_logits(logits_province, labels_province)
        loss_p = ce.item()
        term = scale(ce, w_p)
        total = term if total is None else add(total, term)
    assert total is not None
    return total, LossReport(country=loss_c, province=loss_p, total=w_c * loss_c + w_p * loss_p)


def predict(logits: Tensor | np.ndarray) -> np.ndarray:
    """Argmax class ids per row; ties resolve to the lowest index."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    return np.argmax(arr, axis=-1)


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    model: MtlModel
    country_labels: list[str]
    province_labels: list[str]
    vocab: Vocabulary


def _config_document(
    config: ModelConfig,
    country_labels: Sequence[str],
    province_labels: Sequence[str],
    vocab: Vocabulary,
) -> bytes:
    doc = {
        "model": asdict(config),
        "country_labels": list(country_labels),
        "province_labels": list(province_labels),
        "vocab": list(vocab.id_to_token),
    }
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def save_checkpoint(
    path: str | Path,
    model: MtlModel,
    country_labels: Sequence[str],
    province_labels: Sequence[str],
    vocab: Vocabulary,
) -> None:
    """Write magic, version, config document, then parameters sorted by name.

    The bytes go to a temporary file that replaces path only once complete,
    so a failed write leaves any previous checkpoint untouched.
    """
    doc = _config_document(model.config, country_labels, province_labels, vocab)
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<H", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(doc)))
            f.write(doc)
            for name in sorted(model.params):
                data = model.params[name].data
                name_b = name.encode("utf-8")
                f.write(struct.pack("<I", len(name_b)))
                f.write(name_b)
                f.write(struct.pack("<B", data.ndim))
                f.write(struct.pack(f"<{data.ndim}I", *data.shape))
                f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_exact(f, n: int, size: int) -> bytes:
    """n bytes from f, a file of size bytes; when fewer remain, raise before reading."""
    if n > size - f.tell():
        raise CheckpointError("checkpoint truncated")
    return f.read(n)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Rebuild a model; any corruption or shape mismatch raises CheckpointError.

    Each parameter's name and shape are checked against the config before
    its payload is read, so no read exceeds what the config expects; a
    payload holding inf or nan is rejected.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if _read_exact(f, 4, size) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a model checkpoint (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(f, 2, size))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (doc_len,) = struct.unpack("<I", _read_exact(f, 4, size))
        try:
            doc = json.loads(_read_exact(f, doc_len, size).decode("utf-8"))
        except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
            raise CheckpointError("corrupt config document") from exc
        try:
            m = doc["model"]
            config = ModelConfig(**{**m, "encoder": EncoderConfig(**m["encoder"])})
            country_labels = list(doc["country_labels"])
            province_labels = list(doc["province_labels"])
            tokens = list(doc["vocab"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"invalid config document: {exc}") from exc
        if not all(isinstance(entry, str) for entry in country_labels + province_labels + tokens):
            raise CheckpointError("labels and vocabulary entries must be strings")
        if tuple(tokens[:3]) != RESERVED_TOKENS:
            raise CheckpointError("vocabulary must start with the reserved tokens")
        if len(tokens) != config.encoder.vocab_size:
            raise CheckpointError(
                f"vocabulary size {len(tokens)} does not match config {config.encoder.vocab_size}"
            )
        params: dict[str, Tensor] = {}
        expected = {name.encode("utf-8"): (name, shape) for name, shape, _ in param_specs(config)}
        for _ in range(len(expected)):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4, size))
            name_b = _read_exact(f, name_len, size)
            if name_b not in expected:
                raise CheckpointError(f"unexpected parameter {name_b.decode('utf-8', 'replace')!r}")
            name, shape = expected[name_b]
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, size))
            stored = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, size))
            if stored != shape:
                raise CheckpointError(f"parameter {name!r} has shape {stored}, config expects {shape}")
            count = math.prod(shape)
            data = np.frombuffer(_read_exact(f, 4 * count, size), dtype="<f4").reshape(shape)
            if not np.isfinite(data).all():
                raise CheckpointError(f"parameter {name!r} holds a non-finite value")
            params[name] = Tensor(data.astype(np.float32), requires_grad=True)
        if f.read(1):
            raise CheckpointError("trailing bytes after last parameter")
    if len(params) != len(expected):
        raise CheckpointError("checkpoint is missing parameters")
    vocab = Vocabulary(tokens, min_frequency=1, max_size=len(tokens))
    model = MtlModel(config, params=params)
    return Checkpoint(model=model, country_labels=country_labels, province_labels=province_labels, vocab=vocab)
