"""Model assembly: shared encoder, per-task attention, per-task classifiers.

The same code path serves the joint two-task network and the single-task
baselines; a baseline is just the network with one head and one loss term.
Checkpoints are a bit-exact binary format embedding the config, the label
vocabularies, and the token vocabulary so a saved model is self-contained.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import attnpool, encoder
from .attnpool import task_attention
from .data import write_file
from .encoder import EncoderConfig, encode_batch
from .preprocess import RESERVED_TOKENS, TokenSequence, Vocabulary
from .tensor import (
    Tensor,
    add,
    concat_last,
    cross_entropy_from_logits,
    init_parameters,
    linear,
    parameter_views,
    require_count,
    require_real,
    scale,
    tanh,
)

MODE_MTL = "mtl"
MODE_COUNTRY = "country"
MODE_PROVINCE = "province"
TASKS = ("country", "province")  # the order of forward's logits and of loss_weights
# the heads each mode trains, in forward order
MODE_TASKS = {
    MODE_MTL: TASKS,
    MODE_COUNTRY: ("country",),
    MODE_PROVINCE: ("province",),
}
MODES = tuple(MODE_TASKS)
_CLASS_COUNT = {"country": "n_countries", "province": "n_provinces"}  # ModelConfig field per head

CHECKPOINT_MAGIC = b"MTLD"
CHECKPOINT_VERSION = 6
_HEADER = struct.Struct("<4sHI")  # magic, version, config document length


class CheckpointError(ValueError):
    """Checkpoint file is corrupt or inconsistent with its config, or would be if saved."""


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    n_countries: int = 2
    n_provinces: int = 2
    mode: str = MODE_MTL
    loss_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("n_countries", "n_provinces"):
            require_count(name, getattr(self, name))
        for task, classes in self.tasks():
            if classes < 2:
                raise ValueError(f"{_CLASS_COUNT[task]} must be >= 2 when the {task} head exists")
        if not (isinstance(self.loss_weights, (list, tuple)) and len(self.loss_weights) == 2):
            raise ValueError(f"loss_weights must be a [country, province] pair, got {self.loss_weights!r}")
        w_c, w_p = self.loss_weights
        for w in (w_c, w_p):
            require_real("loss_weights", w)
        if w_c < 0 or w_p < 0:
            raise ValueError("loss_weights must be finite and nonnegative")
        self.loss_weights = (float(w_c), float(w_p))
        weights = dict(zip(TASKS, self.loss_weights))
        if not any(weights[task] > 0 for task, _ in self.tasks()):
            raise ValueError("loss_weights must give at least one present head a positive weight")

    def tasks(self) -> list[tuple[str, int]]:
        """(task, class count) for each head the mode trains, in forward order."""
        return [(task, getattr(self, _CLASS_COUNT[task])) for task in MODE_TASKS[self.mode]]


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
        specs.append((f"{task}_cls.w1", (2 * d, d), "normal"))
        specs.append((f"{task}_cls.b1", (d,), "zeros"))
        specs.append((f"{task}_cls.w2", (d, classes), "normal"))
        specs.append((f"{task}_cls.b2", (classes,), "zeros"))
    return specs


class MtlModel:
    """Encoder + per-task attention pooling + per-task two-layer classifiers; params view values."""

    def __init__(
        self,
        config: ModelConfig,
        global_seed: int = 0,
        dtype=np.float32,
        values: np.ndarray | None = None,
    ):
        self.config = config
        specs = param_specs(config)
        self.values = values if values is not None else init_parameters(specs, global_seed, dtype)
        self.params = parameter_views(self.values, specs)

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
            hidden = tanh(linear(z, self.params[f"{task}_cls.w1"], self.params[f"{task}_cls.b1"]))
            logits[task] = linear(hidden, self.params[f"{task}_cls.w2"], self.params[f"{task}_cls.b2"])
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
    heads = {
        "country": (logits_country, labels_country, w_c),
        "province": (logits_province, labels_province, w_p),
    }
    total: Tensor | None = None
    losses = {"country": 0.0, "province": 0.0}
    for task, _ in config.tasks():
        logits, labels, weight = heads[task]
        if logits is None or labels is None:
            raise ValueError(f"{task} head present but logits or labels missing")
        ce = cross_entropy_from_logits(logits, labels)
        losses[task] = ce.item()
        term = scale(ce, weight)
        total = term if total is None else add(total, term)
    assert total is not None
    loss_c, loss_p = losses["country"], losses["province"]
    return total, LossReport(country=loss_c, province=loss_p, total=w_c * loss_c + w_p * loss_p)


def predict(logits: Tensor) -> np.ndarray:
    """Argmax class ids per row; ties resolve to the lowest index."""
    return np.argmax(logits.data, axis=-1)


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
    model = asdict(config)  # less what the lists fix: the class counts and the vocabulary size
    del model["n_countries"], model["n_provinces"], model["encoder"]["vocab_size"]
    doc = {
        "model": model,
        "country_labels": list(country_labels),
        "province_labels": list(province_labels),
        "vocab": list(vocab.id_to_token),
    }
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _distinct_strings(doc: dict, key: str) -> list[str]:
    """A label list or the token list, whose length is a class count or the vocabulary size."""
    entries = doc[key]
    strings = isinstance(entries, list) and all(isinstance(e, str) for e in entries)
    if not (strings and len(set(entries)) == len(entries)):
        raise ValueError(f"{key} must be an array of distinct strings")
    return entries


def save_checkpoint(
    path: str | Path,
    model: MtlModel,
    country_labels: Sequence[str],
    province_labels: Sequence[str],
    vocab: Vocabulary,
) -> None:
    """Write magic, version, config document, parameter data, CRC32.

    The parameter data is model.values as raw float32 LE: the config in
    the document fixes every name and shape, so none is written. The
    trailer is the zlib CRC32 of every preceding byte, as u32 LE.
    Before anything is written, each trained head's label list must hold
    one label per class and the vocabulary one token per embedding row,
    since loading rebuilds those counts from the lists.
    """
    labels = {"country": country_labels, "province": province_labels}
    for task, classes in model.config.tasks():
        if len(labels[task]) != classes:
            raise CheckpointError(f"{len(labels[task])} {task} labels for the model's {classes} {task} classes")
    if len(vocab) != model.config.encoder.vocab_size:
        raise CheckpointError(f"{len(vocab)} tokens for the model's {model.config.encoder.vocab_size} embedding rows")
    doc = _config_document(model.config, country_labels, province_labels, vocab)
    head = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(doc)) + doc
    data = np.asarray(model.values, "<f4")  # no copy when already float32
    write_file(path, head, data, struct.pack("<I", zlib.crc32(data, zlib.crc32(head))))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Rebuild a model; any corruption or size mismatch raises CheckpointError.

    After magic and version, the CRC32 trailer is checked against the rest
    of the file. The parameter data must hold exactly the values the
    config's param_specs expect, checked before any array is built, and a
    parameter holding inf or nan is rejected. The label lists and the token
    list, arrays of distinct strings, fix the class counts and vocabulary size.
    """
    blob = Path(path).read_bytes()
    size = len(blob) - 4  # the CRC32 trailer follows the body
    if size < _HEADER.size:
        raise CheckpointError("checkpoint truncated")
    magic, version, doc_len = _HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError("not a model checkpoint (bad magic)")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if zlib.crc32(memoryview(blob)[:size]) != struct.unpack_from("<I", blob, size)[0]:
        raise CheckpointError("checkpoint checksum mismatch")
    data_start = _HEADER.size + doc_len
    if data_start > size:
        raise CheckpointError("checkpoint truncated")
    try:
        doc = json.loads(blob[_HEADER.size : data_start].decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
        raise CheckpointError("corrupt config document") from exc
    try:
        country_labels, province_labels, tokens = (
            _distinct_strings(doc, key) for key in ("country_labels", "province_labels", "vocab")
        )
        m = doc["model"]
        # a document that also stores a count passes that keyword twice: TypeError
        enc = EncoderConfig(**m["encoder"], vocab_size=len(tokens))
        config = ModelConfig(**{**m, "encoder": enc}, n_countries=len(country_labels), n_provinces=len(province_labels))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid config document: {exc}") from exc
    if tuple(tokens[:3]) != RESERVED_TOKENS:
        raise CheckpointError("vocabulary must start with the reserved tokens")
    specs = param_specs(config)
    count = sum(math.prod(shape) for _, shape, _ in specs)
    if size - data_start != 4 * count:
        raise CheckpointError(
            f"parameter data holds {size - data_start} bytes, config expects {4 * count}"
        )
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=data_start).astype(np.float32)
    model = MtlModel(config, values=values)
    if not np.isfinite(values).all():
        name = next(name for name, p in model.params.items() if not np.isfinite(p.data).all())
        raise CheckpointError(f"parameter {name!r} holds a non-finite value")
    vocab = Vocabulary(tokens)
    return Checkpoint(model=model, country_labels=country_labels, province_labels=province_labels, vocab=vocab)
