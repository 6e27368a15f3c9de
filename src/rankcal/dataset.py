"""Corpus ingestion, training-subset selection, and RMSE evaluation.

The on-disk corpus is a small CSV, one pixel pair per row:

    camera,illuminant,exposure,patch,raw_r,raw_g,raw_b,jpeg_r,jpeg_g,jpeg_b,white_level

Raw columns are divided by the row's white level and jpeg columns by 255
at load, so everything downstream works on [0, 1]. Rows whose jpeg values
touch 0 or 255, or whose raw values reach 99.5% of the white level, are
flagged saturated; they stay in the set for evaluation but are excluded
from estimation. Lines starting with '#' are comments.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import CorpusFormatError, EmptyCorpus, InsufficientVariety
from .model import PixelPairSet, _as_rows, _check_integer, saturation_flags
from .modelfile import _fmt

CSV_COLUMNS = (
    "camera", "illuminant", "exposure", "patch",
    "raw_r", "raw_g", "raw_b", "jpeg_r", "jpeg_g", "jpeg_b", "white_level",
)

# Tags are written unquoted as UTF-8, so none may hold a delimiter, a
# quote, a line break, a NUL (which the csv reader refuses before Python
# 3.11) or a lone surrogate, and no camera tag may read as a comment.
_UNSAFE_TAG = re.compile('[,"\r\n\x00\ud800-\udfff]')
_COMMENT_TAG = re.compile(r"^\s*#", re.MULTILINE)


@dataclass(frozen=True)
class SubsetSpec:
    """Training-subset selector.

    kind 'uniform' draws ``k`` entries without replacement; kind
    'exposures_illuminants' draws ``n_exposures`` exposure ids and
    ``n_illuminants`` illuminant ids and keeps every entry matching both.
    """

    kind: str
    k: int = 0
    n_exposures: int = 0
    n_illuminants: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        counts = {"uniform": ("k",), "exposures_illuminants": ("n_exposures", "n_illuminants")}
        if self.kind not in counts:
            raise ValueError(f"unknown subset kind {self.kind!r}")
        for name in ("k", "n_exposures", "n_illuminants", "rng_seed"):
            _check_integer(self, name, 1 if name in counts[self.kind] else 0)


def parse_subset_spec(text: str, rng_seed: int = 0) -> SubsetSpec | None:
    """Parse the CLI subset vocabulary: 'all', 'uniform:K', 'exp:E,illu:I'."""
    text = text.strip()
    if text == "all":
        return None

    def count(value: str) -> int:
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"bad subset spec {text!r}: {value!r} is not an integer") from None

    if text.startswith("uniform:"):
        return SubsetSpec(kind="uniform", k=count(text[len("uniform:"):]),
                          rng_seed=rng_seed)
    if text.startswith("exp:"):
        parts = [p.split(":", 1) for p in text.split(",")]
        if any(len(p) != 2 for p in parts) or sorted(p[0] for p in parts) != ["exp", "illu"]:
            raise ValueError(f"bad subset spec {text!r}; use exp:E,illu:I")
        values = dict(parts)
        return SubsetSpec(
            kind="exposures_illuminants",
            n_exposures=count(values["exp"]),
            n_illuminants=count(values["illu"]),
            rng_seed=rng_seed,
        )
    raise ValueError(f"bad subset spec {text!r}; use all, uniform:K, or exp:E,illu:I")


def load_corpus(path) -> PixelPairSet:
    """Read a corpus CSV; errors carry the offending line number."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _parse_corpus(fh, str(path))


def loads_corpus(text: str) -> PixelPairSet:
    return _parse_corpus(io.StringIO(text), "<string>")


def _data_rows(fh, origin: str):
    """(line number, fields) of each data row of a corpus CSV, in file order.

    Blank lines and lines whose first field starts with '#' are skipped;
    the first other line must be the header.
    """
    header = False
    for lineno, row in enumerate(csv.reader(fh), start=1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        if not header:
            if tuple(c.strip() for c in row) != CSV_COLUMNS:
                raise CorpusFormatError(
                    f"{origin}: line {lineno}: expected header "
                    f"{','.join(CSV_COLUMNS)}"
                )
            header = True
            continue
        yield lineno, row
    if not header:
        raise CorpusFormatError(f"{origin}: missing header line")


def _parse_corpus(fh, origin: str) -> PixelPairSet:
    numbers, tags = [], []
    for lineno, row in _data_rows(fh, origin):
        if len(row) != len(CSV_COLUMNS):
            raise CorpusFormatError(
                f"{origin}: line {lineno}: expected {len(CSV_COLUMNS)} fields, "
                f"got {len(row)}"
            )
        try:
            values = [float(v) for v in row[4:]]
        except ValueError:
            raise CorpusFormatError(
                f"{origin}: line {lineno}: non-numeric value"
            ) from None
        if not all(map(math.isfinite, values)):
            raise CorpusFormatError(f"{origin}: line {lineno}: non-finite value")
        raw, jpeg, white = values[0:3], values[3:6], values[6]
        if white <= 0:
            raise CorpusFormatError(
                f"{origin}: line {lineno}: white_level must be positive"
            )
        if min(jpeg) < 0 or max(jpeg) > 255 or min(raw) < 0:
            raise CorpusFormatError(
                f"{origin}: line {lineno}: values out of range"
            )
        # flat lists hold a row in the fewest Python objects
        numbers += values
        tags += row[:4]
    if not numbers:
        raise EmptyCorpus(f"{origin}: no data rows")
    table = np.array(numbers).reshape(-1, 7)
    raw, jpeg, white = table[:, 0:3], table[:, 3:6], table[:, 6]
    # raw values above the white level only occur on rows the saturation
    # rule already flags, so the PixelPairSet invariant holds by construction
    return PixelPairSet(
        raw=raw / white[:, None],
        rendered=jpeg / 255.0,
        camera=tags[0::4],
        illuminant=tags[1::4],
        exposure=tags[2::4],
        patch=tags[3::4],
        saturated=saturation_flags(raw, jpeg, white),
    )


def save_corpus(pairs: PixelPairSet, path) -> None:
    """Write a corpus CSV (white level 1, values already normalized).

    Tags are written unquoted: a tag holding a comma, a double quote, a
    line break, a NUL or a lone surrogate, or a camera tag that starts
    with '#' after any leading whitespace, raises ValueError before
    anything is written.
    """
    for name in CSV_COLUMNS[:4]:
        distinct = set(getattr(pairs, name))
        comment = name == "camera" and _COMMENT_TAG.search("\n".join(distinct))
        if comment or _UNSAFE_TAG.search("".join(distinct)):
            bad = next(t for t in getattr(pairs, name) if _UNSAFE_TAG.search(t)
                       or (name == "camera" and _COMMENT_TAG.match(t)))
            raise ValueError(f"{name} tag {bad!r} cannot be written to a corpus CSV")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(len(pairs)):
            raw = pairs.raw[i]
            jpeg = pairs.rendered[i] * 255.0
            fields = [
                pairs.camera[i], pairs.illuminant[i],
                pairs.exposure[i], pairs.patch[i],
                _fmt(raw[0]), _fmt(raw[1]), _fmt(raw[2]),
                _fmt(jpeg[0]), _fmt(jpeg[1]), _fmt(jpeg[2]),
                "1",
            ]
            fh.write(",".join(fields) + "\n")


def select_subset(corpus: PixelPairSet, spec: SubsetSpec) -> PixelPairSet:
    """Draw a seeded training subset; see SubsetSpec."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot subset an empty corpus")
    rng = np.random.default_rng(spec.rng_seed)
    if spec.kind == "uniform":
        if spec.k > len(corpus):
            raise InsufficientVariety(
                f"requested {spec.k} entries from a corpus of {len(corpus)}"
            )
        idx = rng.choice(len(corpus), size=spec.k, replace=False)
        return corpus.subset(idx)

    exposures = sorted(set(corpus.exposure))
    illuminants = sorted(set(corpus.illuminant))
    if spec.n_exposures > len(exposures) or spec.n_illuminants > len(illuminants):
        raise InsufficientVariety(
            f"corpus has {len(exposures)} exposures and {len(illuminants)} "
            f"illuminants; requested {spec.n_exposures} and {spec.n_illuminants}"
        )
    keep_e = set(rng.choice(exposures, size=spec.n_exposures, replace=False))
    keep_i = set(rng.choice(illuminants, size=spec.n_illuminants, replace=False))
    idx = [
        i for i in range(len(corpus))
        if corpus.exposure[i] in keep_e and corpus.illuminant[i] in keep_i
    ]
    return corpus.subset(np.array(idx, dtype=int))


def rmse(predictions, truth, domain: str = "rendered255") -> float:
    """Root mean squared error over all samples and channels.

    domain 'rendered255' scales errors by 255 to match 8-bit reporting;
    'raw01' reports in normalized raw units.
    """
    pred = _as_rows(predictions, "predictions")
    ref = _as_rows(truth, "truth")
    if pred.shape != ref.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {ref.shape}")
    if pred.shape[0] == 0:
        raise ValueError("rmse needs at least one sample")
    if domain == "rendered255":
        scale = 255.0
    elif domain == "raw01":
        scale = 1.0
    else:
        raise ValueError(f"unknown rmse domain {domain!r}")
    err = (pred - ref) * scale
    return float(np.sqrt(np.mean(err * err)))
