"""Corpus ingestion, training-subset selection, and RMSE evaluation.

The on-disk corpus is a small CSV, one pixel pair per row:

    camera,illuminant,exposure,patch,raw_r,raw_g,raw_b,jpeg_r,jpeg_g,jpeg_b,white_level

Raw columns are divided by the row's white level and jpeg columns by 255
at load, so everything downstream works on [0, 1]. PixelPairSet flags the
normalized rows that some stage clipped (jpeg values at 0 or 255, raw
values at 99.5% of the white level or above) as saturated; they stay in
the set for evaluation but are excluded from estimation. Lines starting
with '#' are comments.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .errors import CorpusFormatError, EmptyCorpus, InsufficientVariety
from .model import PixelPairSet, _as_rows, _check_integer, _check_rows, _check_type

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
# A field that csv.writer quotes (QUOTE_MINIMAL).
_QUOTED_FIELD = re.compile('[,"\r\n]')
# A corpus is read with errors="surrogateescape": a byte that is not
# UTF-8 text reads as its escape, U+DC80 + byte.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


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
        if not isinstance(self.kind, str) or self.kind not in counts:
            raise ValueError(f"unknown subset kind {self.kind!r}")
        for name in ("k", "n_exposures", "n_illuminants", "rng_seed"):
            _check_integer(getattr(self, name), name, 1 if name in counts[self.kind] else 0)


def parse_subset_spec(text: str, rng_seed: int = 0) -> SubsetSpec | None:
    """Parse the CLI subset vocabulary: 'all', 'uniform:K', 'exp:E,illu:I'."""
    _check_type(text, str, "text")
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

    A data row holding a byte that is not UTF-8 text is a bad row. A
    leading UTF-8 byte-order mark, as spreadsheets write, is skipped.

    When ``rows`` is a list, one ``(texts, white)`` pair per block of data
    rows is appended to it, in file order: each row's fields joined by
    commas, a field quoted as ``csv.writer`` would quote it, and the rows'
    white levels as an array. ``path`` is a str, bytes or os.PathLike,
    not a file descriptor, or ValueError names it.
    """
    _check_path(path)
    if rows is not None:
        _check_type(rows, list, "rows")
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        return _parse_corpus(fh, str(path), rows)


def loads_corpus(text: str) -> PixelPairSet:
    _check_type(text, str, "text")
    return _parse_corpus(io.StringIO(text.removeprefix("\ufeff")), "<string>")


def _check_path(path) -> None:
    """Raise ValueError naming ``path`` unless it is a str, bytes or
    os.PathLike: ``open`` would take an int, or a bool, as a file
    descriptor and close it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValueError(f"path must be a str, bytes or os.PathLike, got {type(path).__name__}")


def _parse_corpus(fh, origin: str, rows: list | None = None) -> PixelPairSet:
    # read in its own frame, so that the per-block tables, the last block's
    # strings and the tag dictionaries are freed before the arrays below
    table, tags = _read_table(fh, origin, rows)
    return PixelPairSet(table[:, 0:3], table[:, 3:6] / 255.0, *tags)


def _read_table(fh, origin: str, rows: list | None):
    """The numbers (n, 7) and the four tag lists of a corpus CSV, read
    from ``fh`` once, in blocks of data rows; the raw columns are already
    divided by the white level.

    Blank lines and lines whose first field starts with '#' are skipped;
    a comment whose quote runs past its line raises, naming that line.
    The first other line must be the header. Plain lines (no quote, CR,
    NUL or escaped byte, none longer than the csv field limit) are split
    on commas at C speed. From the first block that is not plain, or that
    fails a check, the rest of the input goes through ``csv.reader``; a
    block it reads is checked row by row only when it fails, so an error
    names the first bad row of the file and its physical line (the last
    line of a record that spans several).
    """
    width = len(CSV_COLUMNS)
    tables, tags, distinct = [], ([], [], [], []), ({}, {}, {}, {})

    def take(fields: list, texts: list) -> bool:
        """Append a block of data rows, ``width`` fields each, when every
        value parses and is in range and no raw value overflows when divided
        by its white level; leave everything as it was if not."""
        table = np.empty((len(texts), 7))
        try:
            for k in range(7):
                table[:, k] = list(map(float, fields[4 + k::width]))
        except ValueError:
            return False
        raw, jpeg, white = table[:, 0:3], table[:, 3:6], table[:, 6]
        if not (np.isfinite(table).all() and (white > 0).all() and raw.min() >= 0
                and jpeg.min() >= 0 and jpeg.max() <= 255):
            return False
        with np.errstate(over="ignore"):
            raw /= white[:, None]
        if not np.isfinite(raw).all():
            return False
        tables.append(table)
        for k, (column, seen) in enumerate(zip(tags, distinct)):
            # one str object per distinct tag: a corpus repeats its
            # cameras, illuminants, exposures and patches
            values = fields[k::width]
            column += map(seen.setdefault, values, values)
        if rows is not None:
            rows.append((texts, white.copy()))
        return True

    limit = csv.field_size_limit()
    header, offset = False, 0  # offset: physical lines before the block
    for block in iter(lambda: list(islice(fh, _BLOCK_ROWS)), []):
        text = "".join(block)
        if ('"' in text or "\r" in text or "\x00" in text or max(map(len, block)) > limit
                or not text.isascii() and _ESCAPED_BYTE.search(text)):
            break
        # each plain line is one record: its fields are the line split on commas
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        if "" in lines:
            lines = list(filter(None, lines))
        if "#" in text:
            lines = [line for line in lines if not line.lstrip().startswith("#")]
        head = bool(lines) and not header
        if head and tuple(c.strip() for c in lines[0].split(",")) != CSV_COLUMNS:
            break
        data = lines[1:] if head else lines
        if data and not (set(map(str.count, data, repeat(","))) == {width - 1}
                         and take(",".join(data).split(","), data)):
            break
        header = header or head
        offset += len(block)
    else:
        block = []

    reader = csv.reader(chain(block, fh))
    last = 0  # the reader's line count after the last record
    while True:
        records, count, failure = [], 0, None
        try:
            for row in islice(reader, _BLOCK_ROWS):
                count += 1
                if row and not row[0].lstrip().startswith("#"):
                    records.append((offset + reader.line_num, row))
                elif reader.line_num > last + 1:
                    # a quote that a comment opens would hide the lines after it
                    failure = CorpusFormatError(
                        f"{origin}: line {offset + last + 1}: comment spans several lines")
                    break
                last = reader.line_num
        except csv.Error as exc:
            # raised after the records read before it are checked
            failure = CorpusFormatError(f"{origin}: line {offset + reader.line_num}: {exc}")
        if records and not header:
            lineno, row = records.pop(0)
            if tuple(c.strip() for c in row) != CSV_COLUMNS:
                raise CorpusFormatError(
                    f"{origin}: line {lineno}: expected header {','.join(CSV_COLUMNS)}"
                )
            header = True
        data = [row for _, row in records]
        fields = list(chain.from_iterable(data))
        # echo texts only when asked for: otherwise take counts the rows
        texts = data if rows is None else [",".join(map(_csv_field, row)) for row in data]
        if data and not (all(len(row) == width for row in data)
                         and not _ESCAPED_BYTE.search("".join(fields))
                         and take(fields, texts)):
            raise _row_error(origin, records)
        if failure is not None:
            raise failure
        if count < _BLOCK_ROWS:
            break

    if not header:
        raise CorpusFormatError(f"{origin}: missing header line")
    if not tables:
        raise EmptyCorpus(f"{origin}: no data rows")
    return np.concatenate(tables), tags


def _csv_field(text: str) -> str:
    """``text`` as a field of a CSV line, quoted as ``csv.writer`` quotes it
    by default: only when it holds a comma, a double quote or a line break."""
    if _QUOTED_FIELD.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _row_error(origin: str, records) -> CorpusFormatError:
    """The error of the first bad row among ``records``, (line number,
    fields) pairs in file order, at least one of which is bad."""
    for lineno, row in records:
        where = f"{origin}: line {lineno}"
        escaped = _ESCAPED_BYTE.search(",".join(row))
        if escaped:
            byte = ord(escaped.group()) - 0xDC00
            return CorpusFormatError(f"{where}: not UTF-8 text (byte 0x{byte:02x})")
        if len(row) != len(CSV_COLUMNS):
            return CorpusFormatError(
                f"{where}: expected {len(CSV_COLUMNS)} fields, got {len(row)}"
            )
        try:
            values = [float(v) for v in row[4:]]
        except ValueError:
            return CorpusFormatError(f"{where}: non-numeric value")
        if not all(map(math.isfinite, values)):
            return CorpusFormatError(f"{where}: non-finite value")
        raw, jpeg, white = values[0:3], values[3:6], values[6]
        if white <= 0:
            return CorpusFormatError(f"{where}: white_level must be positive")
        if min(jpeg) < 0 or max(jpeg) > 255 or min(raw) < 0:
            return CorpusFormatError(f"{where}: values out of range")
        if max(raw) / white == math.inf:
            return CorpusFormatError(f"{where}: raw / white_level overflows")
    raise AssertionError("no bad row in a block that failed its checks")


def _format_rows(template: str, columns) -> str:
    """``template`` % (row values) for each row of the equal-length columns."""
    return "".join(map(template.__mod__, zip(*columns)))


def save_corpus(pairs: PixelPairSet, path) -> None:
    """Write a corpus CSV (white level 1, values already normalized).

    Tags are written unquoted: a tag holding a comma, a double quote, a
    line break, a NUL or a lone surrogate, or a camera tag that starts
    with '#' after any leading whitespace, raises ValueError before
    anything is written. ``path`` takes the rule of ``load_corpus``.
    """
    _check_type(pairs, PixelPairSet, "pairs")
    _check_path(path)
    for name in CSV_COLUMNS[:4]:
        distinct = set(getattr(pairs, name).tolist())
        comment = name == "camera" and _COMMENT_TAG.search("\n".join(distinct))
        if comment or _UNSAFE_TAG.search("".join(distinct)):
            bad = next(t for t in getattr(pairs, name) if _UNSAFE_TAG.search(t)
                       or (name == "camera" and _COMMENT_TAG.match(t)))
            raise ValueError(f"{name} tag {bad!r} cannot be written to a corpus CSV")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(pairs), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            tags = [getattr(pairs, name)[block].tolist() for name in CSV_COLUMNS[:4]]
            numbers = np.column_stack([pairs.raw[block], pairs.rendered[block] * 255.0])
            fh.write(_format_rows(_ROW_TEMPLATE, tags + numbers.T.tolist()))


def select_subset(corpus: PixelPairSet, spec: SubsetSpec) -> PixelPairSet:
    """Draw a seeded training subset; see SubsetSpec."""
    _check_type(corpus, PixelPairSet, "corpus")
    _check_type(spec, SubsetSpec, "spec")
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

    exposures = np.array(sorted(set(corpus.exposure.tolist())), dtype=object)
    illuminants = np.array(sorted(set(corpus.illuminant.tolist())), dtype=object)
    if spec.n_exposures > exposures.size or spec.n_illuminants > illuminants.size:
        raise InsufficientVariety(
            f"corpus has {exposures.size} exposures and {illuminants.size} "
            f"illuminants; requested {spec.n_exposures} and {spec.n_illuminants}"
        )
    keep_e = rng.choice(exposures, size=spec.n_exposures, replace=False)
    keep_i = rng.choice(illuminants, size=spec.n_illuminants, replace=False)
    return corpus.subset(np.isin(corpus.exposure, keep_e)
                         & np.isin(corpus.illuminant, keep_i))


def rmse(predictions, truth, domain: str = "rendered255") -> float:
    """Root mean squared error over all samples and channels.

    domain 'rendered255' scales errors by 255 to match 8-bit reporting;
    'raw01' reports in normalized raw units. Finite inputs give a finite
    result unless the RMSE itself exceeds the largest float.
    """
    pred = _as_rows(predictions, "predictions")
    ref = _as_rows(truth, "truth")
    _check_rows(pred, "predictions", finite=True)
    _check_rows(ref, "truth", finite=True)
    if pred.shape != ref.shape:
        raise ValueError(f"predictions and truth differ in shape: {pred.shape} vs {ref.shape}")
    if pred.shape[0] == 0:
        raise ValueError("predictions and truth must hold at least one row")
    if domain == "rendered255":
        scale = 255.0
    elif domain == "raw01":
        scale = 1.0
    else:
        raise ValueError(f"unknown rmse domain {domain!r}")
    with np.errstate(over="ignore"):
        err = (pred - ref) * scale
        mean = np.mean(err * err)
    if np.isfinite(mean):
        return float(np.sqrt(mean))
    # the squares overflow: halve the inputs, so that no difference does,
    # and square the errors relative to the largest
    half = pred * 0.5 - ref * 0.5
    top = float(np.abs(half).max())
    return top * float(np.sqrt(np.mean((half / top) ** 2))) * (2.0 * scale)
