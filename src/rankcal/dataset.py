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
from itertools import islice, repeat

import numpy as np

from .errors import CorpusFormatError, EmptyCorpus, InsufficientVariety
from .model import PixelPairSet, _as_rows, _check_integer, saturation_flags

CSV_COLUMNS = (
    "camera", "illuminant", "exposure", "patch",
    "raw_r", "raw_g", "raw_b", "jpeg_r", "jpeg_g", "jpeg_b", "white_level",
)

# One corpus row as save_corpus writes it: tags, raw, rendered x 255 and
# a white level of 1. "%.17g" formats a float as modelfile._fmt does.
_ROW_TEMPLATE = "%s,%s,%s,%s," + "%.17g," * 6 + "1\n"

# Lines per block of the parser and rows per block of the writers: a
# block bounds the text and field strings held at once.
_BLOCK_ROWS = 1024

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


def load_corpus(path, rows: list | None = None) -> PixelPairSet:
    """Read a corpus CSV; errors carry the offending line number.

    When ``rows`` is a list, one ``(texts, white)`` pair per block of data
    rows is appended to it, in file order: each row's fields joined by
    commas, and the rows' white levels as an array.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _parse_corpus(fh, str(path), rows)


def loads_corpus(text: str) -> PixelPairSet:
    return _parse_corpus(io.StringIO(text), "<string>")


def _data_rows(fh, origin: str):
    """(line number, fields) of each data row of a corpus CSV, in file order.

    Blank lines and lines whose first field starts with '#' are skipped;
    the first other line must be the header. A row's line number is that
    of its last physical line.
    """
    header = False
    reader = csv.reader(fh)
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        if not header:
            if tuple(c.strip() for c in row) != CSV_COLUMNS:
                raise CorpusFormatError(
                    f"{origin}: line {reader.line_num}: expected header "
                    f"{','.join(CSV_COLUMNS)}"
                )
            header = True
            continue
        yield reader.line_num, row
    if not header:
        raise CorpusFormatError(f"{origin}: missing header line")


def _parse_corpus(fh, origin: str, rows: list | None = None) -> PixelPairSet:
    # the row parser rereads what the block parser declines, so a pipe,
    # which cannot be reread, goes to the row parser alone
    seekable = fh.seekable()
    parsed = _parse_blocks(fh, rows is not None) if seekable else None
    if parsed is None:
        if seekable:
            fh.seek(0)
        parsed = _parse_rows(fh, origin, rows is not None)
    table, tags, texts = parsed
    raw, jpeg, white = table[:, 0:3], table[:, 3:6], table[:, 6]
    if rows is not None:
        levels, start = white.copy(), 0
        for block in texts:
            rows.append((block, levels[start:start + len(block)]))
            start += len(block)
    # raw values above the white level only occur on rows the saturation
    # rule already flags, so the PixelPairSet invariant holds by construction
    return PixelPairSet(
        raw=raw / white[:, None],
        rendered=jpeg / 255.0,
        camera=tags[0],
        illuminant=tags[1],
        exposure=tags[2],
        patch=tags[3],
        saturated=saturation_flags(raw, jpeg, white),
    )


def _parse_rows(fh, origin: str, keep_texts: bool):
    """The row parser: the numbers (n, 7), the four tag lists and, when
    ``keep_texts``, one block of the rows' fields joined by commas.

    The only reader of quoted CSV and the only source of CorpusFormatError
    and EmptyCorpus; ``_parse_blocks`` hands it every file it cannot take.
    """
    numbers, tags, texts = [], [], []
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
        if keep_texts:
            texts.append(",".join(row))
    if not numbers:
        raise EmptyCorpus(f"{origin}: no data rows")
    return (np.array(numbers).reshape(-1, 7), [tags[k::4] for k in range(4)],
            [texts] if keep_texts else None)


def _parse_blocks(fh, keep_texts: bool):
    """The row parser's result for plain CSV, read in blocks at C speed.

    Returns None, having raised nothing, whenever the row parser must
    decide: the text holds a quote, a CR or a NUL, a line is longer than
    the csv field limit, the header is missing, a row has the wrong field
    count or fails a value check, no data row exists, or the text is not
    UTF-8. Without quotes, CRs and NULs each line is one CSV record whose
    fields are the line split on commas, and float() parses the numbers
    as the row parser does, so the arrays and tags are the same.
    """
    limit = csv.field_size_limit()
    header = False
    tables, tags, texts = [], ([], [], [], []), []
    distinct = ({}, {}, {}, {})
    try:
        for block in iter(lambda: list(islice(fh, _BLOCK_ROWS)), []):
            text = "".join(block)
            if '"' in text or "\r" in text or "\x00" in text:
                return None
            lines = text.split("\n")
            if text.endswith("\n"):
                lines.pop()
            if "" in lines:
                lines = list(filter(None, lines))
            if "#" in text:
                lines = [line for line in lines if not line.lstrip().startswith("#")]
            if lines and not header:
                if tuple(c.strip() for c in lines[0].split(",")) != CSV_COLUMNS:
                    return None
                header = True
                del lines[0]
            if not lines:
                continue
            if (max(map(len, lines)) > limit
                    or set(map(str.count, lines, repeat(","))) != {len(CSV_COLUMNS) - 1}):
                return None
            fields = ",".join(lines).split(",")
            table = np.empty((len(lines), 7))
            for k in range(7):
                table[:, k] = list(map(float, fields[4 + k::len(CSV_COLUMNS)]))
            raw, jpeg, white = table[:, 0:3], table[:, 3:6], table[:, 6]
            if not (np.isfinite(table).all() and (white > 0).all() and raw.min() >= 0
                    and jpeg.min() >= 0 and jpeg.max() <= 255):
                return None
            tables.append(table)
            for k, (column, seen) in enumerate(zip(tags, distinct)):
                # one str object per distinct tag: a corpus repeats its
                # cameras, illuminants, exposures and patches
                values = fields[k::len(CSV_COLUMNS)]
                column += map(seen.setdefault, values, values)
            if keep_texts:
                texts.append(lines)
    except ValueError:  # float() refused a field, or the text is not UTF-8
        return None
    if not tables:
        return None
    return np.concatenate(tables), tags, texts if keep_texts else None


def _format_rows(template: str, columns) -> str:
    """``template`` % (row values) for each row of the equal-length columns."""
    return "".join(map(template.__mod__, zip(*columns)))


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
        for start in range(0, len(pairs), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            tags = [getattr(pairs, name)[block] for name in CSV_COLUMNS[:4]]
            numbers = np.column_stack([pairs.raw[block], pairs.rendered[block] * 255.0])
            fh.write(_format_rows(_ROW_TEMPLATE, tags + numbers.T.tolist()))


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
